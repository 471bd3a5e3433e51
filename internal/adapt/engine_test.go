package adapt

import (
	"testing"
	"time"

	"logmob/internal/core"
	"logmob/internal/ctxsvc"
	"logmob/internal/lmu"
	"logmob/internal/netsim"
	"logmob/internal/policy"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

// chattySpec is the rig's task with a model CS wins on a clean link: light
// rounds against heavy code. (The model drives the decision; the actual
// unit stays the rig's doubler.)
func chattySpec(r *rig, unit *lmu.Unit) *TaskSpec {
	spec := r.spec(unit, 10)
	spec.Model.ReqBytes, spec.Model.ReplyBytes = 40, 40
	spec.Model.CodeBytes = 4000
	return spec
}

// TestEngineReselectsPerInteraction drives the same engine through a
// context regime change and checks that it records the trajectory: the
// paradigm flips, the switch is counted, every decision lands in history.
func TestEngineReselectsPerInteraction(t *testing.T) {
	r := newRig(t)
	unit := r.doubler(t)
	dec := &policy.AdaptiveDecider{
		Objective: policy.Objective{BytesWeight: 1, LatencyWeight: 200},
		Alpha:     1, Hysteresis: 0.05,
	}
	eng := NewEngine(r.device, dec)

	// A chatty-but-light task on a clean link: CS.
	first := run(t, r, eng, chattySpec(r, unit))
	if first.Paradigm != policy.CS {
		t.Fatalf("clean-link paradigm = %s, want CS", first.Paradigm)
	}
	// The sensors report a degrading link; the next interaction re-decides.
	r.device.Context().SetNum(ctxsvc.KeyLoss, 0.5)
	second := run(t, r, eng, chattySpec(r, unit))
	if second.Paradigm == policy.CS {
		t.Fatalf("engine kept CS through 50%% loss")
	}
	if eng.Decisions() != 2 || eng.Switches() != 1 {
		t.Errorf("decisions = %d, switches = %d; want 2, 1", eng.Decisions(), eng.Switches())
	}
	hist := eng.History()
	if len(hist) != 2 || hist[0].Paradigm != first.Paradigm || hist[1].Paradigm != second.Paradigm {
		t.Errorf("history = %+v", hist)
	}
	if eng.Regret() < 0 {
		t.Errorf("negative regret %v", eng.Regret())
	}
}

// TestEngineHysteresisAccruesRegret pins the trade the engine makes
// explicit: holding the incumbent under hysteresis accrues model regret.
func TestEngineHysteresisAccruesRegret(t *testing.T) {
	r := newRig(t)
	unit := r.doubler(t)
	dec := &policy.AdaptiveDecider{
		Objective: policy.Objective{BytesWeight: 1, LatencyWeight: 200},
		Alpha:     1, Hysteresis: 10, // never switch
	}
	eng := NewEngine(r.device, dec)
	if out := run(t, r, eng, chattySpec(r, unit)); out.Paradigm != policy.CS {
		t.Fatalf("initial paradigm = %s", out.Paradigm)
	}
	r.device.Context().SetNum(ctxsvc.KeyLoss, 0.5)
	if out := run(t, r, eng, chattySpec(r, unit)); out.Paradigm != policy.CS {
		t.Fatalf("10x hysteresis switched anyway")
	}
	if eng.Regret() <= 0 {
		t.Errorf("held a dominated incumbent with regret %v, want > 0", eng.Regret())
	}
	if eng.Switches() != 0 {
		t.Errorf("switches = %d", eng.Switches())
	}
}

// TestEngineHistoryBounded starts three short of the cap (the backing array
// is never touched, so the test costs address space, not memory) and decides
// seven times: the trajectory stops at the cap, dropping the oldest.
func TestEngineHistoryBounded(t *testing.T) {
	r := newRig(t)
	unit := r.doubler(t)
	eng := NewEngine(r.device, &policy.CostDecider{})
	eng.history = make([]Decision, historyCap-3, historyCap+8)
	for i := 0; i < 7; i++ {
		run(t, r, eng, r.spec(unit, 1))
	}
	if got := len(eng.history); got != historyCap {
		t.Errorf("history length = %d, want the cap %d", got, historyCap)
	}
	if d := eng.history[historyCap-7:]; d[0].Paradigm != policy.CS || d[6].Paradigm != policy.CS {
		t.Errorf("the seven newest entries are not the seven decisions: %+v", d)
	}
	if eng.Decisions() != 7 {
		t.Errorf("decisions = %d", eng.Decisions())
	}
}

// TestEngineDecisionAllocs pins the decide step of the loop: once the
// decider has smoothed a first sample and the trajectory has room, deciding
// allocates nothing — one scoring pass, no executable-set slice, no score map.
func TestEngineDecisionAllocs(t *testing.T) {
	r := newRig(t)
	spec := r.spec(r.doubler(t), 4)
	eng := NewEngine(r.device, nil)
	eng.history = make([]Decision, 0, 256)
	decide := func() {
		if _, err := eng.decide(spec); err != nil {
			t.Fatal(err)
		}
	}
	decide()
	if got := testing.AllocsPerRun(100, decide); got != 0 {
		t.Errorf("an engine decision allocates %v times, want 0", got)
	}
}

func TestEngineRejectsHostileModel(t *testing.T) {
	r := newRig(t)
	unit := r.doubler(t)
	eng := NewEngine(r.device, nil)
	spec := r.spec(unit, 1)
	spec.Model.ReqBytes = -1
	called := false
	var gotErr error
	eng.Run(spec, func(_ Outcome, err error) { called, gotErr = true, err })
	if !called || gotErr == nil {
		t.Fatalf("hostile model: called=%v err=%v", called, gotErr)
	}
}

// TestCODLocalComputeIsCharged pins the engine's compute accounting: with a
// modelled CPU rate, running fetched code locally takes virtual time.
func TestCODLocalComputeIsCharged(t *testing.T) {
	sim := netsim.NewSim(6)
	net := netsim.NewNetwork(sim)
	sn := transport.NewSimNetwork(net)
	id := security.MustNewIdentity("publisher")
	trust := security.NewTrustStore()
	trust.TrustIdentity(id)
	mk := func(name string, rate float64) *core.Host {
		class := netsim.WLAN
		class.Loss = 0
		net.AddNode(name, netsim.Position{}, class)
		ep, err := sn.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := core.NewHost(core.Config{
			Name: name, Endpoint: ep, Scheduler: sim, Trust: trust,
			ServeEval: true, ComputeRate: rate,
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	server := mk("server", 0)
	dev := mk("slowdev", 100) // 100 instructions per second
	unit := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "tool/double", Version: "1.0", Kind: lmu.KindComponent, Publisher: "publisher"},
		Code:     vm.MustAssemble(".entry main\nmain:\npush 2\nmul\nhalt\n").Encode(),
	}
	id.Sign(unit)
	if err := server.Publish(unit); err != nil {
		t.Fatal(err)
	}
	spec := &TaskSpec{
		Model:  policy.Task{Interactions: 4, CodeBytes: int64(unit.Size())},
		Remote: "server", Unit: unit, Entry: "main", Args: []int64{21},
	}
	start := sim.Now()
	var out Outcome
	done := false
	NewEngine(dev, nil).RunAs(policy.COD, spec, func(o Outcome, e error) {
		if e != nil {
			t.Fatal(e)
		}
		out, done = o, true
	})
	sim.RunFor(10 * time.Minute)
	if !done {
		t.Fatal("COD run never completed")
	}
	if out.Rounds != 4 {
		t.Fatalf("rounds = %d", out.Rounds)
	}
	// 4 rounds of a handful of instructions at 100/s must cost a
	// measurable fraction of a second beyond the fetch itself.
	if sim.Now()-start < 100*time.Millisecond {
		t.Errorf("local compute was free: elapsed %v", sim.Now()-start)
	}
}
