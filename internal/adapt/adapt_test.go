package adapt

import (
	"errors"
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

type rig struct {
	sim    *netsim.Sim
	net    *netsim.Network
	id     *security.Identity
	server *core.Host
	device *core.Host
	// serverAudit holds the events the server's audit sink received.
	serverAudit []core.AuditEvent
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sim := netsim.NewSim(6)
	net := netsim.NewNetwork(sim)
	sn := transport.NewSimNetwork(net)
	id := security.MustNewIdentity("publisher")
	trust := security.NewTrustStore()
	trust.TrustIdentity(id)
	r := &rig{sim: sim, net: net, id: id}
	mk := func(name string, class netsim.LinkClass, audit func(core.AuditEvent)) *core.Host {
		class.Loss = 0
		net.AddNode(name, netsim.Position{}, class)
		ep, err := sn.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := core.NewHost(core.Config{
			Name: name, Endpoint: ep, Scheduler: sim, Trust: trust, ServeEval: true, Audit: audit,
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	r.server = mk("server", netsim.LAN, func(ev core.AuditEvent) { r.serverAudit = append(r.serverAudit, ev) })
	r.device = mk("device", netsim.WLAN, nil)
	return r
}

// doubler builds the published unit and the matching CS service: both
// compute 2*x, so any paradigm must agree on the answer.
func (r *rig) doubler(t *testing.T) *lmu.Unit {
	t.Helper()
	u := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "tool/double", Version: "1.0", Kind: lmu.KindComponent, Publisher: "publisher"},
		Code:     vm.MustAssemble(".entry main\nmain:\npush 2\nmul\nhalt\n").Encode(),
	}
	r.id.Sign(u)
	if err := r.server.Publish(u); err != nil {
		t.Fatal(err)
	}
	r.server.RegisterService("double", func(from string, args [][]byte) ([][]byte, error) {
		vals := decodeInts(args)
		out := make([]int64, len(vals))
		for i, v := range vals {
			out[i] = 2 * v
		}
		return EncodeInts(out), nil
	})
	return u
}

func (r *rig) spec(unit *lmu.Unit, interactions int64) *TaskSpec {
	return &TaskSpec{
		Model: policy.Task{
			Interactions: interactions,
			ReqBytes:     16, ReplyBytes: 16,
			CodeBytes:   int64(unit.Size()),
			ResultBytes: 16,
		},
		Remote:  "server",
		Service: "double",
		Unit:    unit,
		Entry:   "main",
		Args:    []int64{21},
	}
}

// await drives the rig until the execution start began calls back.
func await(t *testing.T, r *rig, start func(cb func(Outcome, error))) Outcome {
	t.Helper()
	var out Outcome
	var err error
	done := false
	start(func(o Outcome, e error) { out, err, done = o, e, true })
	r.sim.RunFor(5 * time.Minute)
	if !done {
		t.Fatal("execution never completed")
	}
	if err != nil {
		t.Fatalf("execution: %v", err)
	}
	return out
}

func run(t *testing.T, r *rig, eng *Engine, spec *TaskSpec) Outcome {
	t.Helper()
	return await(t, r, func(cb func(Outcome, error)) { eng.Run(spec, cb) })
}

// costModel is a snapshot decider trading traffic against a latency term,
// so compute placement influences the choice.
func costModel() policy.Decider {
	return &policy.CostDecider{Objective: policy.DefaultObjective()}
}

func TestOneShotGoesCS(t *testing.T) {
	r := newRig(t)
	unit := r.doubler(t)
	eng := NewEngine(r.device, costModel())
	out := run(t, r, eng, r.spec(unit, 1))
	if out.Paradigm != policy.CS {
		t.Errorf("paradigm = %s, want CS for a one-shot task", out.Paradigm)
	}
	if len(out.Stack) != 1 || out.Stack[0] != 42 {
		t.Errorf("result = %v", out.Stack)
	}
	if out.Rounds != 1 {
		t.Errorf("rounds = %d", out.Rounds)
	}
}

func TestChattyGoesCODAndResultMatches(t *testing.T) {
	r := newRig(t)
	unit := r.doubler(t)
	eng := NewEngine(r.device, costModel())
	out := run(t, r, eng, r.spec(unit, 500))
	if out.Paradigm != policy.COD {
		t.Errorf("paradigm = %s, want COD for 500 rounds", out.Paradigm)
	}
	if len(out.Stack) != 1 || out.Stack[0] != 42 {
		t.Errorf("result = %v", out.Stack)
	}
	if out.Rounds != 500 {
		t.Errorf("rounds = %d", out.Rounds)
	}
	// COD fetched once: the server's audit sink saw a single fetch despite
	// 500 rounds.
	fetches := 0
	for _, ev := range r.serverAudit {
		if ev.Kind == "fetch" {
			fetches++
		}
	}
	if fetches != 1 {
		t.Errorf("server served %d fetches, want 1", fetches)
	}
}

func TestAllParadigmsAgreeOnResult(t *testing.T) {
	r := newRig(t)
	unit := r.doubler(t)
	eng := NewEngine(r.device, nil)
	for _, p := range []policy.Paradigm{policy.CS, policy.REV, policy.COD} {
		p := p
		out := await(t, r, func(cb func(Outcome, error)) { eng.RunAs(p, r.spec(unit, 2), cb) })
		if out.Paradigm != p {
			t.Errorf("forced %s, ran %s", p, out.Paradigm)
		}
		if len(out.Stack) != 1 || out.Stack[0] != 42 {
			t.Errorf("%s result = %v, want [42]", p, out.Stack)
		}
	}
}

func TestRuleDeciderDrivesAgentPath(t *testing.T) {
	r := newRig(t)
	unit := r.doubler(t)
	// Expensive link in context + rule decider => MA; the spec provides an
	// agent spawner.
	r.device.Context().SetNum(ctxsvc.KeyCostPerByte, 2e-5)
	eng := NewEngine(r.device, policy.DefaultRules())
	spec := r.spec(unit, 2)
	spawned := false
	spec.SpawnAgent = func(done func([]int64, error)) error {
		spawned = true
		done([]int64{42}, nil) // stand-in for a real agent round trip
		return nil
	}
	out := run(t, r, eng, spec)
	if out.Paradigm != policy.MA || !spawned {
		t.Errorf("paradigm = %s, spawned = %v", out.Paradigm, spawned)
	}
}

func TestDeciderFallsBackToExecutable(t *testing.T) {
	r := newRig(t)
	// Rule decider would pick MA on this costed link, but the spec has no
	// agent; the engine must fall back to something executable.
	r.device.Context().SetNum(ctxsvc.KeyCostPerByte, 2e-5)
	unit := r.doubler(t)
	eng := NewEngine(r.device, policy.DefaultRules())
	out := run(t, r, eng, r.spec(unit, 2))
	if out.Paradigm == policy.MA {
		t.Error("ran MA without an agent spawner")
	}
	if len(out.Stack) != 1 || out.Stack[0] != 42 {
		t.Errorf("result = %v", out.Stack)
	}
}

func TestEmptySpecFails(t *testing.T) {
	r := newRig(t)
	eng := NewEngine(r.device, costModel())
	var gotErr error
	eng.Run(&TaskSpec{Model: policy.Task{Interactions: 1}}, func(_ Outcome, err error) {
		gotErr = err
	})
	if !errors.Is(gotErr, ErrNoOperation) {
		t.Fatalf("err = %v, want ErrNoOperation", gotErr)
	}
}

// TestRunAsRefusesWhatTheSpecCannotExecute: a pin is checked against the same
// executable set a decision is taken over, for every paradigm — a spec with
// no unit pinned to COD is an error, not a nil dereference.
func TestRunAsRefusesWhatTheSpecCannotExecute(t *testing.T) {
	r := newRig(t)
	eng := NewEngine(r.device, nil)
	spec := &TaskSpec{Model: policy.Task{Interactions: 1}, Remote: "server", Service: "double"}
	for _, p := range []policy.Paradigm{policy.REV, policy.COD, policy.MA, policy.Paradigm(9)} {
		var gotErr error
		eng.RunAs(p, spec, func(_ Outcome, err error) { gotErr = err })
		if !errors.Is(gotErr, ErrNoOperation) {
			t.Errorf("pinned to %v without an operation for it: err = %v, want ErrNoOperation", p, gotErr)
		}
	}
	if u := r.net.UsageOf("device"); u.MsgsSent != 0 {
		t.Errorf("refused pins sent %d messages", u.MsgsSent)
	}
}

func TestArgsCodecRoundTrip(t *testing.T) {
	vals := []int64{0, 1, -1, 1 << 40, -(1 << 40), 42}
	got := decodeInts(EncodeInts(vals))
	if len(got) != len(vals) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("value %d: %d != %d", i, got[i], vals[i])
		}
	}
}
