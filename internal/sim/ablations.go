package sim

import (
	"fmt"
	"math/rand"
	"time"

	"logmob/internal/app"
	"logmob/internal/core"
	"logmob/internal/ctxsvc"
	"logmob/internal/metrics"
	"logmob/internal/netsim"
	"logmob/internal/policy"
	"logmob/internal/registry"
	"logmob/internal/scenario"
)

// A1 ablates the registry's eviction policy on the codec workload: which
// victim-selection rule keeps the hit ratio highest under a Zipf-skewed
// play stream and a tight quota?
func A1() Experiment {
	return Experiment{
		ID:    "A1",
		Title: "Ablation: registry eviction policy",
		Motivation: `design choice behind "the device can choose to delete ` +
			`[code], conserving resources" — which deletion rule?`,
		Run: runA1,
	}
}

const (
	a1Plays = 300
	a1Quota = 6
)

func runA1(seed int64) *Result {
	res := &Result{ID: "A1", Title: "Eviction policy ablation"}
	table := metrics.NewTable(fmt.Sprintf(
		"Table A1: %d Zipf(1.0) plays over %d formats, quota %d codecs",
		a1Plays, t2Formats, a1Quota),
		"policy", "hit %", "link B", "evictions")

	for _, pol := range []registry.EvictionPolicy{registry.LRU{}, registry.LFU{}, registry.SizeGreedy{}} {
		w := scenario.NewWorld(seed)
		units := app.CodecCatalogue(w.ID, t2Formats, t2TableSize)
		quota := int64(a1Quota) * int64(units[0].Size())
		repo := w.AddHost("repo", netsim.Position{}, netsim.LAN, nil)
		device := w.AddHost("device", netsim.Position{}, netsim.WLAN, func(c *core.Config) {
			c.Registry = registry.New(quota, registry.WithClock(w.Sim.Now), registry.WithPolicy(pol))
		})
		for _, u := range units {
			if err := repo.Publish(u); err != nil {
				panic(err)
			}
		}
		player := &app.Player{Host: device, Repo: "repo", Samples: 16}
		zipf := app.NewZipf(t2Formats, 1.0, seed)
		var play func(i int)
		play = func(i int) {
			if i >= a1Plays {
				return
			}
			player.Play(fmt.Sprintf("fmt-%02d", zipf.Next()), func(int64, bool, error) {
				play(i + 1)
			})
		}
		play(0)
		w.Sim.RunFor(8 * time.Hour)
		u := w.Net.UsageOf("device")
		hitPct := 100 * float64(player.Hits) / float64(player.Plays)
		table.AddRow(pol.Name(), fmt.Sprintf("%.1f", hitPct),
			u.BytesSent+u.BytesRecv, device.Registry().Evictions())
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		"all codecs are equal-sized, so size-greedy degenerates to a deterministic first pick — which is the hottest format, a pathological choice; LRU/LFU lead on a Zipf stream")
	return res
}

// A2 ablates the paradigm decider: the context rule set versus the analytic
// cost model versus an oracle that always picks the traffic-minimal
// paradigm, over a randomized task mix.
func A2() Experiment {
	return Experiment{
		ID:    "A2",
		Title: "Ablation: paradigm decider (rules vs cost model vs oracle)",
		Motivation: `"used when needed after assessment of the environment and ` +
			`application" — how good does the assessment have to be?`,
		Run: runA2,
	}
}

const a2Tasks = 300

func runA2(seed int64) *Result {
	res := &Result{ID: "A2", Title: "Decider ablation"}
	table := metrics.NewTable(fmt.Sprintf("Table A2: %d randomized tasks", a2Tasks),
		"decider", "mean KB/task", "vs oracle", "optimal %")

	rng := rand.New(rand.NewSource(seed))
	type taskCase struct {
		task policy.Task
		ctx  *ctxsvc.Service
	}
	cases := make([]taskCase, 0, a2Tasks)
	for i := 0; i < a2Tasks; i++ {
		ctx := ctxsvc.New(func() time.Duration { return 0 }, 0)
		if rng.Float64() < 0.5 {
			ctx.SetNum(ctxsvc.KeyCostPerByte, 2e-5) // GPRS-like link
			ctx.SetNum(ctxsvc.KeyBandwidth, 5e3)
		} else {
			ctx.SetNum(ctxsvc.KeyBandwidth, 650e3)
		}
		ctx.SetNum(ctxsvc.KeyCPUFactor, 0.25+rng.Float64()*1.5)
		cases = append(cases, taskCase{
			task: policy.Task{
				Interactions: 1 + rng.Int63n(100),
				ReqBytes:     50 + rng.Int63n(450),
				ReplyBytes:   100 + rng.Int63n(1900),
				CodeBytes:    1000 + rng.Int63n(19000),
				StateBytes:   100 + rng.Int63n(1900),
				ResultBytes:  50 + rng.Int63n(950),
				ComputeUnits: rng.Float64() * 5,
			},
			ctx: ctx,
		})
	}

	oracle := func(t policy.Task) (policy.Paradigm, int64) {
		best := policy.CS
		bestBytes := policy.Traffic(policy.CS, t)
		for _, p := range policy.Paradigms()[1:] {
			if b := policy.Traffic(p, t); b < bestBytes {
				best, bestBytes = p, b
			}
		}
		return best, bestBytes
	}

	var oracleTotal float64
	for _, c := range cases {
		_, b := oracle(c.task)
		oracleTotal += float64(b)
	}
	oracleMean := oracleTotal / float64(a2Tasks) / 1024

	deciders := []policy.Decider{
		policy.DefaultRules(),
		&policy.CostDecider{},
	}
	table.AddRow("oracle", fmt.Sprintf("%.2f", oracleMean), "1.00", "100.0")
	for _, d := range deciders {
		var total float64
		optimal := 0
		for _, c := range cases {
			chosen, _ := d.Choose(c.task, policy.Paradigms(), c.ctx)
			total += float64(policy.Traffic(chosen, c.task))
			if best, _ := oracle(c.task); chosen == best {
				optimal++
			}
		}
		mean := total / float64(a2Tasks) / 1024
		table.AddRow(d.Name(), fmt.Sprintf("%.2f", mean),
			fmt.Sprintf("%.2f", mean/oracleMean),
			fmt.Sprintf("%.1f", 100*float64(optimal)/float64(a2Tasks)))
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		"the cost-model decider should sit near the oracle (it optimises the same objective, differing only via context-estimated parameters); the rule set trades bytes for simplicity")
	return res
}
