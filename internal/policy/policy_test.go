package policy

import (
	"testing"
	"time"

	"logmob/internal/ctxsvc"
)

// pick is a decider's unrestricted choice.
func pick(d Decider, t Task, ctx *ctxsvc.Service) Paradigm {
	p, _ := d.Choose(t, Paradigms(), ctx)
	return p
}

func TestTrafficModel(t *testing.T) {
	task := Task{
		Interactions: 10,
		ReqBytes:     100,
		ReplyBytes:   400,
		CodeBytes:    2000,
		StateBytes:   300,
		ResultBytes:  200,
	}
	cases := []struct {
		p    Paradigm
		want int64
	}{
		{CS, 10 * 500},
		{REV, 2000 + 100 + 200},
		{COD, 2000 + 400},
		{MA, 2000 + 300 + 300 + 200},
	}
	for _, c := range cases {
		if got := Traffic(c.p, task); got != c.want {
			t.Errorf("Traffic(%s) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestTrafficCrossover(t *testing.T) {
	// With chatty interactions, CS wins for small N and loses for large N:
	// the paper's core argument for logical mobility.
	task := Task{ReqBytes: 100, ReplyBytes: 400, CodeBytes: 5000}
	task.Interactions = 1
	if Traffic(CS, task) >= Traffic(COD, task) {
		t.Error("CS should win at N=1")
	}
	task.Interactions = 100
	if Traffic(CS, task) <= Traffic(COD, task) {
		t.Error("COD should win at N=100")
	}
	// The crossover is at code/(req+reply) rounds, modulo the one free
	// reply COD gets.
	crossover := int64(0)
	for n := int64(1); n <= 1000; n++ {
		task.Interactions = n
		if Traffic(CS, task) > Traffic(COD, task) {
			crossover = n
			break
		}
	}
	if crossover < 10 || crossover > 12 {
		t.Errorf("crossover at N=%d, want ~11 for 5000-byte code over 500-byte rounds", crossover)
	}
}

func TestLatencyRTTDominatesCS(t *testing.T) {
	// On a high-latency link, CS pays one RTT per round; REV pays two.
	task := Task{Interactions: 50, ReqBytes: 10, ReplyBytes: 10, CodeBytes: 100, ResultBytes: 10}
	slow := Link{BandwidthBps: 1e6, RTT: 600 * time.Millisecond}
	cs := Latency(CS, task, slow, Env{})
	rev := Latency(REV, task, slow, Env{})
	if cs <= rev {
		t.Errorf("CS %v should exceed REV %v on high-RTT link", cs, rev)
	}
	if cs < 30*time.Second { // 50 rounds * 600ms
		t.Errorf("CS latency %v should include 50 RTTs", cs)
	}
}

func TestLatencyComputePlacement(t *testing.T) {
	// Heavy compute on a weak device: REV to a fast host must beat COD.
	task := Task{Interactions: 1, CodeBytes: 1000, ReqBytes: 10, ResultBytes: 10, ComputeUnits: 10}
	link := Link{BandwidthBps: 1e6, RTT: 10 * time.Millisecond}
	env := Env{LocalCPUFactor: 0.2, RemoteCPUFactor: 5}
	rev := Latency(REV, task, link, env)
	cod := Latency(COD, task, link, env)
	if rev >= cod {
		t.Errorf("REV %v should beat COD %v with 25x compute advantage", rev, cod)
	}
}

func TestCost(t *testing.T) {
	task := Task{Interactions: 10, ReqBytes: 100, ReplyBytes: 100}
	link := Link{CostPerByte: 0.001}
	if got := Cost(CS, task, link); got != 2.0 {
		t.Errorf("Cost = %v, want 2.0", got)
	}
}

func TestCostDeciderPrefersCODForChattyTasks(t *testing.T) {
	d := &CostDecider{}
	// Many rounds of device-side interaction; shipping the work out (REV/MA)
	// would have to bring all the per-round outcomes back as the result.
	task := Task{Interactions: 200, ReqBytes: 100, ReplyBytes: 400, CodeBytes: 3000,
		StateBytes: 500, ResultBytes: 2000}
	if got := pick(d, task, nil); got != COD {
		t.Errorf("Choose = %s, want COD", got)
	}
}

func TestCostDeciderPrefersCSForOneShot(t *testing.T) {
	d := &CostDecider{}
	task := Task{Interactions: 1, ReqBytes: 50, ReplyBytes: 50, CodeBytes: 10000, StateBytes: 1000}
	if got := pick(d, task, nil); got != CS {
		t.Errorf("Choose = %s, want CS", got)
	}
}

func TestCostDeciderRespectsAllowed(t *testing.T) {
	d := &CostDecider{}
	task := Task{Interactions: 200, ReqBytes: 100, ReplyBytes: 400, CodeBytes: 3000}
	got, _ := d.Choose(task, []Paradigm{CS, REV}, nil)
	if got != CS && got != REV {
		t.Errorf("Choose = %s, outside allowed set", got)
	}
}

func TestCostDeciderUsesContextLink(t *testing.T) {
	// A very expensive link with cost weighting pushes away from CS.
	ctx := ctxsvc.New(func() time.Duration { return 0 }, 0)
	ctx.SetNum(ctxsvc.KeyCostPerByte, 0.01)
	ctx.SetNum(ctxsvc.KeyBandwidth, 5e3)
	d := &CostDecider{Objective: Objective{CostWeight: 1e6}}
	task := Task{Interactions: 50, ReqBytes: 200, ReplyBytes: 800, CodeBytes: 2000, StateBytes: 100, ResultBytes: 100}
	got := pick(d, task, ctx)
	if got == CS {
		t.Errorf("Choose = CS despite costed link; CS estimate = %+v",
			estimate(CS, task, LinkFromContext(ctx), EnvFromContext(ctx)))
	}
}

func TestRuleDecider(t *testing.T) {
	d := DefaultRules()
	newCtx := func() *ctxsvc.Service { return ctxsvc.New(func() time.Duration { return 0 }, 0) }

	t.Run("expensive-link-uses-agents", func(t *testing.T) {
		ctx := newCtx()
		ctx.SetNum(ctxsvc.KeyCostPerByte, 2e-5) // GPRS-like
		got := pick(d, Task{Interactions: 2}, ctx)
		if got != MA {
			t.Errorf("Choose = %s, want MA", got)
		}
	})
	t.Run("weak-cpu-offloads", func(t *testing.T) {
		ctx := newCtx()
		ctx.SetNum(ctxsvc.KeyCPUFactor, 0.2)
		got := pick(d, Task{ComputeUnits: 5}, ctx)
		if got != REV {
			t.Errorf("Choose = %s, want REV", got)
		}
	})
	t.Run("chatty-fetches-code", func(t *testing.T) {
		got := pick(d, Task{Interactions: 20, CodeBytes: 1000}, newCtx())
		if got != COD {
			t.Errorf("Choose = %s, want COD", got)
		}
	})
	t.Run("default-is-cs", func(t *testing.T) {
		got := pick(d, Task{Interactions: 1}, newCtx())
		if got != CS {
			t.Errorf("Choose = %s, want CS", got)
		}
	})
	t.Run("nil-context-is-cs", func(t *testing.T) {
		if got := pick(d, Task{Interactions: 1}, nil); got != CS {
			t.Errorf("Choose = %s, want CS", got)
		}
	})
}

func TestParadigmString(t *testing.T) {
	want := map[Paradigm]string{CS: "CS", REV: "REV", COD: "COD", MA: "MA", Paradigm(9): "paradigm(9)"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
}

func TestDeciderNames(t *testing.T) {
	if (&CostDecider{}).Name() != "cost-model" || DefaultRules().Name() != "rules" {
		t.Error("decider names changed; experiment tables depend on them")
	}
}

func TestLatencyZeroBandwidthSafe(t *testing.T) {
	// Must not divide by zero.
	_ = Latency(CS, Task{Interactions: 1, ReqBytes: 10}, Link{}, Env{})
}
