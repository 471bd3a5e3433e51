package sim

import (
	"fmt"
	"math"
	"time"

	"logmob/internal/app"
	"logmob/internal/discovery"
	"logmob/internal/lmu"
	"logmob/internal/metrics"
	"logmob/internal/netsim"
	"logmob/internal/scenario"
	"logmob/internal/transport"
)

// crowdMsgSize is the payload, in bytes, of every courier message and CS
// request in the crowd experiments.
const crowdMsgSize = 200

// crowd is the world the scale-out experiments (T11 festival, T12 city, T13
// blackout, T15 metropolis and, through T15, T16 megacity) race the
// paradigms over: a handful of fixed service points on a lattice and a
// random-waypoint crowd roaming between them. Every node is an ordinary
// ad-hoc device that beacons, hosts agents and relays couriers; mobile-agent
// couriers always run, and the experiment picks which of the other three
// paradigms run beside them and which optional rows its table shows.
type crowd struct {
	name string // scenario.Spec.Name
	// ns namespaces everything the experiment advertises or names:
	// "<ns>/info" on every point, "<ns>/<node>" self-ads, "<ns>/courier"
	// topics, the "<ns>/echo" service and "<ns>job-<point>" eval units.
	ns string

	points     string // population name of the fixed service points
	pointCount int
	// side is the lattice the points sit on, cells centred (2 puts four
	// points on the field's quarter points); 0 selects the smallest square
	// lattice that holds pointCount.
	side int

	people      string // population name of the roaming crowd
	peopleCount int

	field, radio       float64 // metres: square field edge, radio range
	beacon             time.Duration
	speedMin, speedMax float64
	pause              time.Duration
	warmup, duration   time.Duration

	// MA: couriers spawn on crowd members srcMin..srcMax metres from their
	// target point — far beyond one radio hop, so they must be carried.
	couriers       int
	srcMin, srcMax float64

	cod      *codWave // COD rollout from the points to the whole crowd, or nil
	csRounds int      // CS rounds per camped client (plus one REV job each); 0 = no CS/REV
	// faults is the adversity schedule; a non-zero one adds the
	// Reliability rows.
	faults scenario.Faults

	beaconStats bool // show topology epochs + beacon traffic
	beaconCache bool // show the mean cached presence ads
}

// codWave describes a crowd experiment's Code-on-Demand component.
type codWave struct {
	unit, version string
	size          int // coefficient table, bytes
	retry         time.Duration
	prefix        string // FetchWave row prefix
}

// spec compiles the crowd into a scenario.Spec under the given table title.
// Workloads start in the order COD, MA, CS/REV; the probes are one fixed
// sequence with the experiment's optional rows switched in.
func (c crowd) spec(title string) *scenario.Spec {
	side := c.side
	if side == 0 {
		side = int(math.Ceil(math.Sqrt(float64(c.pointCount))))
	}
	pointPos := make(scenario.PlacePoints, c.pointCount)
	for k := range pointPos {
		pointPos[k] = netsim.Position{
			X: c.field / float64(side) * (float64(k%side) + 0.5),
			Y: c.field / float64(side) * (float64(k/side) + 0.5),
		}
	}

	// Both populations are the same kind of device; they differ in where
	// they stand, what they advertise and whether they move.
	device := scenario.Population{
		Link: netsim.AdHoc, Range: c.radio,
		AllowUnsigned: true,
		Agents:        true, MaxHops: 4096,
		ExtraCaps: scenario.GreedyGeoCaps,
		Beacon:    c.beacon,
	}
	pts, ppl := device, device
	pts.Name, pts.Count, pts.Place = c.points, c.pointCount, pointPos
	pts.Ads = []discovery.Ad{{Service: c.ns + "/info"}}
	pts.AdSelf = c.ns + "/"
	ppl.Name, ppl.Count, ppl.Place = c.people, c.peopleCount, scenario.PlaceUniform{}
	ppl.AgentSeedOffset = int64(c.pointCount)
	ppl.Ads = []discovery.Ad{{Service: "presence"}}
	ppl.Mobility = &netsim.RandomWaypoint{
		FieldW: c.field, FieldH: c.field,
		SpeedMin: c.speedMin, SpeedMax: c.speedMax, Pause: c.pause,
	}
	ppl.MobilityTick = time.Second

	// MA: store-carry-forward couriers; first-delivery times are recorded
	// at the points (agent transfer is at-least-once, so a courier can
	// occasionally arrive twice).
	fleet := &scenario.Couriers{
		Count:        c.couriers,
		TargetPop:    c.points,
		SourcePop:    c.people,
		SrcMin:       c.srcMin,
		SrcMax:       c.srcMax,
		PayloadBytes: crowdMsgSize,
		TopicPrefix:  c.ns + "/courier",
	}
	workloads := []scenario.Workload{fleet}
	probes := []scenario.Probe{scenario.MeanNeighbors{Pop: c.people}}
	if c.beaconStats {
		probes = append(probes, scenario.TopologyEpochs{}, scenario.BeaconTraffic{})
	}
	if c.beaconCache {
		probes = append(probes, scenario.BeaconCache{Pop: c.people})
	}
	probes = append(probes, scenario.Coverage{Pop: c.people, Service: c.ns + "/info"})
	if c.csRounds > 0 {
		camped := &campedClients{points: c.points, people: c.people, ns: c.ns, rounds: c.csRounds}
		workloads = append(workloads, camped)
		probes = append(probes, camped)
	}
	if cod := c.cod; cod != nil {
		// COD: published on every point, fetched by every crowd member
		// that roams into a point's range.
		wave := &scenario.FetchWave{
			Pop: c.people, ServerPop: c.points,
			Unit: func(w *scenario.World) *lmu.Unit {
				return app.BuildCodec(w.ID, cod.unit, cod.version, cod.size)
			},
			Entry: "decode", Args: []int64{8},
			Retry: cod.retry, Prefix: cod.prefix,
		}
		workloads = append([]scenario.Workload{wave}, workloads...)
		probes = append(probes, wave)
	}
	probes = append(probes, scenario.AgentHops{}, fleet)
	if !c.faults.IsZero() {
		probes = append(probes, scenario.Reliability{})
	}
	probes = append(probes, scenario.NetTraffic{})

	return &scenario.Spec{
		Name:        c.name,
		Field:       scenario.Field{Width: c.field, Height: c.field},
		Populations: []scenario.Population{pts, ppl},
		Warmup:      c.warmup,
		Duration:    c.duration,
		Workloads:   workloads,
		Probes:      probes,
		Faults:      c.faults,
		TableTitle:  title,
	}
}

// campedClients is the Client/Server and Remote Evaluation workload of the
// crowd experiments, and the probe that reports it: for each service point,
// the nearest unclaimed crowd member at workload start becomes its CS client
// (rounds of echo calls, a failed round retrying in 10s) and the
// next-nearest its REV client (one eval job, retried every 15s until it
// lands). Selection is deterministic: ties resolve in creation order.
type campedClients struct {
	points, people, ns string
	rounds             int

	csDone, csRounds   int
	revDone, revTarget int
}

// Start implements scenario.Workload.
func (c *campedClients) Start(w *scenario.World) {
	// Reset, not accumulate: like the built-in workloads, the same spec
	// value may be started once per seed.
	c.csDone, c.csRounds, c.revDone, c.revTarget = 0, 0, 0, 0
	points := w.Pops[c.points]
	reply := make([]byte, 96)
	for _, p := range points {
		w.Hosts[p].RegisterService(c.ns+"/echo", func(string, [][]byte) ([][]byte, error) {
			return [][]byte{reply}, nil
		})
	}
	claimed := map[string]bool{}
	// nearest claims the closest unclaimed crowd member, or "" when the
	// crowd is exhausted (tiny sweep populations) — the point then simply
	// fields no client for that paradigm.
	nearest := func(point string) string {
		pos := w.Net.Node(point).Pos()
		best, bestD := "", math.Inf(1)
		for _, name := range w.Pops[c.people] {
			if claimed[name] {
				continue
			}
			if d := w.Net.Node(name).Pos().Dist(pos); d < bestD {
				best, bestD = name, d
			}
		}
		if best != "" {
			claimed[best] = true
		}
		return best
	}

	req := make([]byte, crowdMsgSize)
	for _, point := range points {
		csName := nearest(point)
		if csName == "" {
			continue
		}
		c.csRounds += c.rounds
		client := w.Hosts[csName]
		remaining := c.rounds
		var call func()
		var callRetry transport.Timer // made on the first failure
		call = func() {
			if remaining <= 0 {
				return
			}
			client.Call(point, c.ns+"/echo", [][]byte{req}, func(_ [][]byte, err error) {
				if err != nil {
					if callRetry == nil {
						callRetry = w.Sim.NewTimer(call)
					}
					callRetry.Reset(10 * time.Second)
					return
				}
				remaining--
				c.csDone++
				call()
			})
		}
		call()

		revName := nearest(point)
		if revName == "" {
			continue
		}
		c.revTarget++
		evalClient := w.Hosts[revName]
		job := app.BuildCodec(w.ID, c.ns+"job-"+point, "1.0", 256)
		job.Manifest.Kind = lmu.KindRequest
		w.ID.Sign(job)
		done := false
		var eval func()
		var evalRetry transport.Timer // made on the first failure
		eval = func() {
			if done {
				return
			}
			evalClient.Eval(point, job, "decode", []int64{8}, func(_ []int64, err error) {
				if err != nil {
					if evalRetry == nil {
						evalRetry = w.Sim.NewTimer(eval)
					}
					evalRetry.Reset(15 * time.Second)
					return
				}
				if !done {
					done = true
					c.revDone++
				}
			})
		}
		eval()
	}
}

// Collect implements scenario.Probe.
func (c *campedClients) Collect(_ *scenario.World, t *metrics.Table) {
	t.AddRow("cs rounds completed", fmt.Sprintf("%d/%d", c.csDone, c.csRounds))
	t.AddRow("rev evals completed", fmt.Sprintf("%d/%d", c.revDone, c.revTarget))
}
