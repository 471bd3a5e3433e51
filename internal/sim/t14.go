package sim

import (
	"fmt"
	"math"
	"time"

	"logmob/internal/core"
	"logmob/internal/ctxsvc"
	"logmob/internal/discovery"
	"logmob/internal/netsim"
	"logmob/internal/policy"
	"logmob/internal/scenario"
)

// T14 parameters: five identical client groups — one per fixed paradigm
// plus the adaptive engine — co-located around two service stations, all
// running the same rotating application mix while the environment degrades
// (escalating loss, station churn, draining batteries).
const (
	t14Stations  = 2
	t14Warmup    = 20 * time.Second
	t14BeaconIvl = 20 * time.Second
	t14Gap       = 2 * time.Second
	t14Deadline  = 40 * time.Second
	t14RingR     = 25.0 // client ring radius around each station, metres
)

// ParadigmCodes is the convention behind the numeric "paradigm"
// parameter experiments expose (and the -paradigm CLI flag): 1..4 are the
// four fixed paradigms in policy order, "adaptive" selects the live
// engine, and 0 (no entry) races every group.
var ParadigmCodes = map[string]float64{
	"cs":       float64(policy.CS),
	"rev":      float64(policy.REV),
	"cod":      float64(policy.COD),
	"ma":       float64(policy.MA),
	"adaptive": 5,
}

// t14Groups lists the racing groups in presentation order: the paradigm
// code each answers to, and the pinned paradigm (0 = adapt freely).
var t14Groups = []struct {
	name  string
	code  float64
	fixed policy.Paradigm
}{
	{"cs", ParadigmCodes["cs"], policy.CS},
	{"rev", ParadigmCodes["rev"], policy.REV},
	{"cod", ParadigmCodes["cod"], policy.COD},
	{"ma", ParadigmCodes["ma"], policy.MA},
	{"adaptive", ParadigmCodes["adaptive"], 0},
}

// t14Mix is the rotating application mix every group runs; the three
// shapes pull toward different paradigms, so no fixed choice fits the
// stream:
//
//   - ping: tiny control exchanges against a comparatively heavy code
//     bundle — Client/Server moves 144 bytes where ship-once paradigms
//     move a kilobyte, but pays six lossy message legs to do it;
//   - crunch: a compute job on a weak device with a strong station —
//     Remote Evaluation ships it out; fetching it (COD) means grinding
//     the weak CPU for seconds;
//   - localdata: a fat on-device dataset processed by a small component —
//     Code On Demand fetches 430 bytes where every other paradigm hauls
//     the dataset (or chats it) across the link.
func t14Mix() []policy.Task {
	return []policy.Task{
		{
			Interactions: 3, ReqBytes: 24, ReplyBytes: 24,
			CodeBytes: 1200, StateBytes: 120, ResultBytes: 16,
		},
		{
			Interactions: 6, ReqBytes: 64, ReplyBytes: 64,
			CodeBytes: 600, StateBytes: 200, ResultBytes: 32,
			ComputeUnits: 2,
		},
		{
			Interactions: 4, ReqBytes: 450, ReplyBytes: 32,
			CodeBytes: 400, StateBytes: 1800, ResultBytes: 32,
		},
	}
}

// T14 is the adaptation-loop experiment: the paper's "plugged-in
// dynamically and used when needed after assessment of the environment and
// application", raced against its own ingredients. Five identical client
// groups run the same task stream against the same stations over the same
// degrading field; four groups are pinned to one paradigm each, the fifth
// re-selects per interaction from live sensed context (link state, retry
// accounting, battery). The table reports each group's completions, the
// adaptive group's decision trajectory, and the usual reliability rows.
func T14() Experiment {
	return FromSpec("T14", "Adaptive paradigm selection vs the four fixed paradigms",
		`"different mobile code paradigms could be plugged-in dynamically and `+
			`used when needed after assessment of the environment and the `+
			`applications" — the adaptation loop closed end to end: sensors feed `+
			`the context service, a smoothed hysteretic decider re-selects the `+
			`paradigm per interaction, and the selection races all four fixed `+
			`paradigms under loss, churn and battery drain.`,
		map[string]float64{
			"clients":  6,    // per group
			"field":    400,  // metres square
			"range":    60,   // radio range
			"loss":     0.12, // base drop probability; doubles mid-run
			"churn":    0.02, // station crash probability per 10s tick
			"battery":  1e5,  // per-client energy budget (0 = unlimited)
			"link":     0,    // 0 adhoc, 1 wlan, 2 gprs
			"duration": 360,  // seconds of post-warmup run
			"paradigm": 0,    // 0 all groups, 1 cs, 2 rev, 3 cod, 4 ma, 5 adaptive
		},
		func(p map[string]float64) *scenario.Spec {
			spec, _ := t14Build(p)
			return spec
		},
		"expected shape: the ping/crunch/localdata mix splits the fixed groups (frugal control traffic vs offloaded compute vs data locality), escalating loss punishes leg-heavy paradigms and tight batteries punish byte-heavy ones; the adaptive group re-decides per interaction and is never the worst group, winning outright once loss or battery pressure bites — and the whole table is byte-identical per seed at any -workers count",
	)
}

// t14Link resolves the link-class axis for clients and stations.
func t14Link(code float64) (client, station netsim.LinkClass) {
	switch int(code) {
	case 1:
		return netsim.WLAN, netsim.WLAN
	case 2:
		// Costed infrastructure: phones on GPRS, stations on the wire.
		return netsim.GPRS, netsim.LAN
	default:
		return netsim.AdHoc, netsim.AdHoc
	}
}

// t14Build declares the race world and returns the group workloads keyed
// by name, for the acceptance tests to read scores from.
func t14Build(p map[string]float64) (*scenario.Spec, map[string]*scenario.Adaptive) {
	clients := int(math.Max(p["clients"], 1)) // the ring placement divides by it
	field := p["field"]
	radio := p["range"]
	loss := p["loss"]
	churn := p["churn"]
	battery := p["battery"]
	duration := time.Duration(math.Max(p["duration"], 30)) * time.Second
	selector := p["paradigm"]
	clientLink, stationLink := t14Link(p["link"])

	stationPos := make(scenario.PlacePoints, t14Stations)
	for s := range stationPos {
		stationPos[s] = netsim.Position{X: field * float64(s+1) / float64(t14Stations+1), Y: field / 2}
	}
	// Every group places client i at the same spot: a ring slot around its
	// station. Co-location makes the groups' radio conditions identical.
	ring := make(scenario.PlacePoints, clients)
	for i := range ring {
		st := stationPos[i%t14Stations]
		angle := 2 * math.Pi * float64(i) / float64(clients)
		ring[i] = netsim.Position{X: st.X + t14RingR*math.Cos(angle), Y: st.Y + t14RingR*math.Sin(angle)}
	}

	pops := []scenario.Population{{
		Name: "station", Count: t14Stations, Place: stationPos,
		Link: stationLink, Range: radio,
		AllowUnsigned: true,
		Agents:        true, MaxHops: 64,
		Beacon: t14BeaconIvl,
		Ads:    []discovery.Ad{{Service: "t14/info"}},
		AdSelf: "t14/",
		ConfigHost: func(c *core.Config) {
			c.ComputeRate = 4 * scenario.ComputeRefIPS // strong server CPU
		},
	}}

	var workloads []scenario.Workload
	var probes []scenario.Probe
	groups := make(map[string]*scenario.Adaptive, len(t14Groups))
	sensePops := []string{}
	for gi, g := range t14Groups {
		if selector != 0 && selector != g.code {
			continue
		}
		pops = append(pops, scenario.Population{
			Name: g.name, Count: clients, Place: ring,
			Link: clientLink, Range: radio,
			AllowUnsigned: true,
			Agents:        true, AgentSeedOffset: int64(t14Stations + gi*clients), MaxHops: 64,
			EnergyBudget: battery,
			ConfigHost: func(c *core.Config) {
				c.ComputeRate = 0.25 * scenario.ComputeRefIPS // weak device CPU
			},
			Setup: func(w *scenario.World, i int, h *core.Host) {
				h.Context().SetNum(ctxsvc.KeyCPUFactor, 0.25)
				h.Context().SetNum("remote."+ctxsvc.KeyCPUFactor, 4)
			},
		})
		wl := &scenario.Adaptive{
			Pop: g.name, ServerPop: "station",
			Mix:      t14Mix(),
			Gap:      t14Gap,
			Deadline: t14Deadline,
			Fixed:    g.fixed,
			Label:    g.name,
		}
		if g.fixed == 0 {
			// Latency carries the objective while the battery is healthy
			// (completions are throughput-bound); the battery-aware energy
			// term takes over as it drains, steering each task shape to its
			// cheapest paradigm.
			wl.Objective = policy.Objective{BytesWeight: 0.3, LatencyWeight: 600, EnergyWeight: 0.3}
			wl.BatteryAware = true
			wl.Hysteresis = 0.05 // per-shape engines keep this from flapping
		}
		groups[g.name] = wl
		workloads = append(workloads, wl)
		probes = append(probes, wl)
		sensePops = append(sensePops, g.name)
	}
	probes = append(probes, scenario.Reliability{}, scenario.NetTraffic{})

	// The blackout half: loss doubles at the midpoint, so the early and
	// late regimes favour different paradigms even on one axis.
	lateLoss := math.Min(2*loss, 0.5)
	faults := scenario.Faults{
		Impairment: netsim.Impairment{Drop: loss},
		Retry:      scenario.RetryFault{Budget: 3, Timeout: 2 * time.Second},
	}
	if loss > 0 {
		faults.JitterTicks = 1
		faults.Events = []scenario.FaultEvent{
			{At: t14Warmup + duration/2, Impairment: netsim.Impairment{Drop: lateLoss, JitterTicks: 2}},
		}
	}
	if churn > 0 {
		faults.Churn = []scenario.ChurnFault{{Pop: "station", ChurnSchedule: netsim.ChurnSchedule{
			Tick: 10 * time.Second, CrashProb: churn,
			Downtime: 15 * time.Second, DowntimeJitterTicks: 1,
		}}}
	}

	spec := &scenario.Spec{
		Name:        "Adaptation race",
		Field:       scenario.Field{Width: field, Height: field},
		Populations: pops,
		Warmup:      t14Warmup,
		Duration:    duration,
		Workloads:   workloads,
		Probes:      probes,
		Faults:      faults,
		Sense:       scenario.Sense{Tick: 3 * time.Second, Pops: sensePops},
		TableTitle: fmt.Sprintf(
			"Table T14: %d clients/group, %s links, loss %g→%g, churn %g, battery %g",
			clients, clientLink.Name, loss, lateLoss, churn, battery),
	}
	return spec, groups
}
