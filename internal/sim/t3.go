package sim

import (
	"fmt"
	"time"

	"logmob/internal/agent"
	"logmob/internal/baseline"
	"logmob/internal/core"
	"logmob/internal/metrics"
	"logmob/internal/netsim"
	"logmob/internal/scenario"
	"logmob/internal/security"
)

// Disaster-field parameters shared by T3 and T4.
const (
	disasterField    = 500.0 // metres square
	disasterMsgSize  = 256
	disasterDeadline = 4 * time.Minute
	disasterPairs    = 8 // messages per configuration
)

// disasterRun executes one disaster-field configuration and reports both
// strategies' outcomes.
type disasterOutcome struct {
	maDelivered int
	maLatency   metrics.Series
	csDelivered int
	csLatency   metrics.Series
}

// runDisaster builds a random-waypoint ad-hoc field of n nodes, injects
// disasterPairs messages between the two ends of the field, and measures
// store-carry-forward agents against end-to-end routed messaging.
func runDisaster(seed int64, n int, speed float64) disasterOutcome {
	var out disasterOutcome
	for pair := 0; pair < disasterPairs; pair++ {
		pairSeed := seed*1000 + int64(pair)

		// --- MA: courier agent.
		{
			w := newDisasterWorld(pairSeed, n, speed)
			var deliveredAt time.Duration
			w.Hosts["n1"].OnMessage(func(string, string, []byte) {
				if deliveredAt == 0 {
					deliveredAt = w.Sim.Now()
				}
			})
			plat := w.platforms["n0"]
			_, err := plat.Spawn("courier", agent.CourierProgram,
				agent.NewCourierData("n1", "disaster", make([]byte, disasterMsgSize)), "main")
			if err != nil {
				panic(err)
			}
			w.Sim.RunFor(disasterDeadline)
			if deliveredAt > 0 {
				out.maDelivered++
				out.maLatency.Observe(deliveredAt.Seconds())
			}
		}

		// --- CS: routed end-to-end with retransmission.
		{
			w := newDisasterWorld(pairSeed, n, speed)
			delivered := false
			w.Net.SetHandler("n1", func(string, []byte) { delivered = true })
			m := baseline.NewMessenger(w.Net, disasterDeadline)
			var outcome baseline.MessageOutcome
			m.SendUntilConfirmed("n0", "n1", make([]byte, disasterMsgSize),
				func() bool { return delivered },
				func(o baseline.MessageOutcome) { outcome = o })
			w.Sim.RunFor(disasterDeadline + time.Minute)
			if outcome.Delivered {
				out.csDelivered++
				out.csLatency.Observe(outcome.DeliveredAt.Seconds())
			}
		}
	}
	return out
}

// disasterWorld is a field of agent-hosting ad-hoc nodes under random
// waypoint mobility. n0 sits at one corner, n1 at the opposite corner;
// relays start at random positions.
type disasterWorld struct {
	*scenario.World
	platforms map[string]*agent.Platform
}

func newDisasterWorld(seed int64, n int, speed float64) *disasterWorld {
	w := &disasterWorld{World: scenario.NewWorld(seed), platforms: make(map[string]*agent.Platform)}
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		var pos netsim.Position
		switch i {
		case 0:
			pos = netsim.Position{X: 10, Y: 10}
		case 1:
			pos = netsim.Position{X: disasterField - 10, Y: disasterField - 10}
		default:
			pos = netsim.Position{
				X: w.Sim.Rand().Float64() * disasterField,
				Y: w.Sim.Rand().Float64() * disasterField,
			}
		}
		class := netsim.AdHoc
		class.Range = 60
		h := w.AddHost(name, pos, class, func(c *core.Config) {
			c.Policy = security.Policy{AllowUnsigned: true}
		})
		w.platforms[name] = agent.NewPlatform(h, agent.Env{Seed: seed + int64(i), MaxHops: 4096})
		names = append(names, name)
	}
	// Relays (and the endpoints) roam; endpoints move too in a disaster.
	w.Net.StartMobility(&netsim.RandomWaypoint{
		FieldW: disasterField, FieldH: disasterField,
		SpeedMin: speed / 2, SpeedMax: speed * 1.5,
		Pause: 2 * time.Second,
	}, time.Second, names...)
	return w
}

// T3 sweeps node density: delivery ratio of courier agents vs routed
// messaging. The agents' store-carry-forward only needs a next hop
// eventually; routing needs a contemporaneous end-to-end path — so agents
// dominate at low density.
func T3() Experiment {
	return Experiment{
		ID:    "T3",
		Title: "Disaster messaging: delivery ratio vs node density",
		Motivation: `"Mobile agents can be employed in an ad-hoc networking ` +
			`structure to deliver best effort messaging and communication in ` +
			`disaster scenarios. The message ... migrates from host to host, ` +
			`until it reaches the required destination."`,
		Run: runT3,
	}
}

func runT3(seed int64) *Result {
	res := &Result{ID: "T3", Title: "Disaster delivery ratio vs density"}
	table := metrics.NewTable(fmt.Sprintf(
		"Table T3: delivery within %v, %gx%gm field, speed 3m/s, %d msgs/config",
		disasterDeadline, disasterField, disasterField, disasterPairs),
		"nodes", "MA delivered", "MA ratio", "CS delivered", "CS ratio")
	chart := metrics.NewChart("Figure T3: delivery ratio vs node count", "nodes", "ratio")

	for _, n := range []int{4, 8, 12, 16, 24} {
		o := runDisaster(seed, n, 3)
		maRatio := float64(o.maDelivered) / disasterPairs
		csRatio := float64(o.csDelivered) / disasterPairs
		table.AddRow(n, o.maDelivered, fmt.Sprintf("%.2f", maRatio),
			o.csDelivered, fmt.Sprintf("%.2f", csRatio))
		chart.Add("MA", float64(n), maRatio)
		chart.Add("CS", float64(n), csRatio)
	}
	res.Tables = append(res.Tables, table)
	res.Charts = append(res.Charts, chart)
	res.Notes = append(res.Notes,
		"expected shape: MA >= CS everywhere, with the gap widest at low density where end-to-end paths rarely exist")
	return res
}

// T4 fixes density and sweeps node speed: mobility is what ferries agents
// across partitions, so agent latency improves (and routing stays poor) as
// nodes move faster.
func T4() Experiment {
	return Experiment{
		ID:    "T4",
		Title: "Disaster messaging: latency vs node speed",
		Motivation: `same scenario as T3; speed is the ferrying mechanism for ` +
			`store-carry-forward delivery`,
		Run: runT4,
	}
}

func runT4(seed int64) *Result {
	res := &Result{ID: "T4", Title: "Disaster latency vs speed"}
	table := metrics.NewTable(fmt.Sprintf(
		"Table T4: 12 nodes, %d msgs/config, deadline %v", disasterPairs, disasterDeadline),
		"speed m/s", "MA ratio", "MA median s", "CS ratio", "CS median s")
	chart := metrics.NewChart("Figure T4: MA median delivery latency vs speed", "m/s", "seconds")

	for _, speed := range []float64{1, 2, 4, 8, 12} {
		o := runDisaster(seed+101, 12, speed)
		maRatio := float64(o.maDelivered) / disasterPairs
		csRatio := float64(o.csDelivered) / disasterPairs
		maMed, csMed := "-", "-"
		if o.maLatency.N() > 0 {
			maMed = fmt.Sprintf("%.1f", o.maLatency.Median())
			chart.Add("MA", speed, o.maLatency.Median())
		}
		if o.csLatency.N() > 0 {
			csMed = fmt.Sprintf("%.1f", o.csLatency.Median())
		}
		table.AddRow(speed, fmt.Sprintf("%.2f", maRatio), maMed,
			fmt.Sprintf("%.2f", csRatio), csMed)
	}
	res.Tables = append(res.Tables, table)
	res.Charts = append(res.Charts, chart)
	res.Notes = append(res.Notes,
		"expected shape: MA delivery ratio rises and its latency falls with speed (faster ferrying)")
	return res
}
