package sim

import (
	"fmt"
	"time"

	"logmob/internal/agent"
	"logmob/internal/app"
	"logmob/internal/lmu"
	"logmob/internal/metrics"
	"logmob/internal/netsim"
	"logmob/internal/policy"
	"logmob/internal/scenario"
	"logmob/internal/security"
	"logmob/internal/vm"
)

// t1AgentSource is a minimal out-and-back agent: visit the one host on the
// itinerary, then return home (KeyDest) and halt.
const t1AgentSource = `
.entry main
main:
	push 0
	host a_itin_select
	jz done
	host a_migrate
	pop
	host a_select_dest
	jz done
	host a_migrate
	pop
done:
	halt
`

var t1AgentProgram = vm.MustAssemble(t1AgentSource)

// T1 measures the four-paradigm traffic model: analytic predictions next to
// traffic actually metered on the simulated device link, across interaction
// counts N. The shape to reproduce: CS wins for small N; the mobile-code
// paradigms win beyond a crossover because code moves once while
// interactions keep crossing the link.
func T1() Experiment {
	return Experiment{
		ID:    "T1",
		Title: "Paradigm traffic crossover (CS / REV / COD / MA)",
		Motivation: `"We consider the following forms of mobile interactions, ` +
			`according to [1] ..." — the four paradigms whose traffic tradeoff ` +
			`is the paper's core argument for logical mobility.`,
		Run: runT1,
	}
}

const (
	t1Req    = 200
	t1Reply  = 1000
	t1State  = 600
	t1Result = 100
	t1Code   = 3000
)

func runT1(seed int64) *Result {
	res := &Result{ID: "T1", Title: "Paradigm traffic crossover"}

	// The component shipped by COD/REV; its real packed size feeds the model
	// so model and measurement describe the same artifact.
	id := security.MustNewIdentity("publisher")
	codeUnit := app.BuildCodec(id, "t1", "1.0", t1Code)
	task := policy.Task{
		ReqBytes:    t1Req,
		ReplyBytes:  t1Reply,
		CodeBytes:   int64(codeUnit.Size()),
		StateBytes:  t1State,
		ResultBytes: t1Result,
	}

	table := metrics.NewTable("Table T1: device-link bytes, model vs measured",
		"N", "paradigm", "model B", "measured B", "measured/model")
	chart := metrics.NewChart("Figure T1: model traffic vs interactions N", "N", "bytes")

	sweep := []int64{1, 2, 5, 10, 20, 50}
	for _, n := range sweep {
		task.Interactions = n
		measured := measureT1(seed, n)
		for _, p := range policy.Paradigms() {
			model := policy.Traffic(p, task)
			m := measured[p]
			ratio := float64(m) / float64(model)
			table.AddRow(n, p.String(), model, m, fmt.Sprintf("%.2f", ratio))
		}
	}
	for n := int64(1); n <= 50; n++ {
		task.Interactions = n
		for _, p := range policy.Paradigms() {
			chart.Add(p.String(), float64(n), float64(policy.Traffic(p, task)))
		}
	}

	// Locate the model crossover where COD beats CS.
	crossover := int64(0)
	for n := int64(1); n <= 200; n++ {
		task.Interactions = n
		if policy.Traffic(policy.CS, task) > policy.Traffic(policy.COD, task) {
			crossover = n
			break
		}
	}
	res.Tables = append(res.Tables, table)
	res.Charts = append(res.Charts, chart)
	res.Notes = append(res.Notes,
		fmt.Sprintf("model crossover: COD beats CS from N=%d interactions", crossover),
		"measured/model > 1 reflects kernel framing overhead; the shape (who wins at each N) must match")
	return res
}

// t1Spec declares a minimal two-node world — a LAN server and a GPRS
// device — running one paradigm's workload for the given duration.
func t1Spec(agents bool, duration time.Duration, workload scenario.Workload) *scenario.Spec {
	return &scenario.Spec{
		Name: "Paradigm traffic",
		Populations: []scenario.Population{
			{Name: "server", Link: netsim.LAN, Agents: agents},
			{Name: "device", Link: netsim.GPRS, Agents: agents},
		},
		Duration:  duration,
		Workloads: []scenario.Workload{workload},
	}
}

// measureT1 runs each paradigm for n interactions on a fresh simulated
// GPRS device against a LAN server, returning device-link bytes moved.
// Each paradigm is one declarative spec built on the matching built-in
// workload.
func measureT1(seed, n int64) map[policy.Paradigm]int64 {
	out := make(map[policy.Paradigm]int64, 4)

	deviceBytes := func(w *scenario.World) int64 {
		u := w.Net.UsageOf("device")
		return u.BytesSent + u.BytesRecv
	}

	// The component REV ships / COD fetches, built against each world's
	// publisher so it verifies there.
	codec := func(w *scenario.World) *lmu.Unit {
		return app.BuildCodec(w.ID, "t1", "1.0", t1Code)
	}

	cases := []struct {
		paradigm policy.Paradigm
		spec     *scenario.Spec
	}{
		// CS: n request/reply rounds.
		{policy.CS, t1Spec(false, time.Duration(n)*30*time.Second, scenario.Calls{
			Client: "device", Server: "server", Service: "work",
			ReqBytes: t1Req, ReplyBytes: t1Reply, Rounds: n,
		})},
		// REV: ship the code once, get the result.
		{policy.REV, t1Spec(false, 10*time.Minute, scenario.EvalOnce{
			Client: "device", Server: "server",
			Unit: func(w *scenario.World) *lmu.Unit {
				job := codec(w)
				job.Manifest.Kind = lmu.KindRequest
				w.ID.Sign(job)
				return job
			},
			Entry: "decode", Args: []int64{n * 8},
		})},
		// COD: fetch the component once, run the n interactions locally.
		{policy.COD, t1Spec(false, 10*time.Minute, scenario.FetchRun{
			Client: "device", Server: "server",
			Unit:  codec,
			Entry: "decode", Runs: n, Args: []int64{8},
		})},
		// MA: one agent out and back carrying state.
		{policy.MA, t1Spec(true, 10*time.Minute, scenario.SpawnAgent{
			Host: "device", Name: "roundtrip", Program: t1AgentProgram,
			Data: map[string][]byte{
				agent.KeyDest:      []byte("device"),
				agent.KeyItinerary: agent.EncodeItinerary([]string{"server"}),
				"state":            make([]byte, t1State),
				// Pad the agent to carry application logic comparable to the
				// component the other paradigms ship, as the model assumes.
				"applogic": make([]byte, t1Code),
			},
			Entry: "main",
		})},
	}
	for _, c := range cases {
		w, _ := c.spec.Run(seed)
		out[c.paradigm] = deviceBytes(w)
	}
	return out
}
