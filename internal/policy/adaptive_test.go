package policy

import (
	"math"
	"testing"
	"time"

	"logmob/internal/ctxsvc"
)

func TestEWMASmoothing(t *testing.T) {
	e := ewma{alpha: 0.5}
	if got := e.observe(10); got != 10 {
		t.Fatalf("first sample = %v, want 10", got)
	}
	if got := e.observe(0); got != 5 {
		t.Fatalf("second sample = %v, want 5", got)
	}
	// Alpha outside (0,1] disables smoothing.
	raw := ewma{alpha: 7}
	raw.observe(10)
	if got := raw.observe(2); got != 2 {
		t.Fatalf("unsmoothed = %v, want 2", got)
	}
}

// senseCtx builds a context that looks like the scenario sensors wrote it.
func senseCtx(loss, battery float64) *ctxsvc.Service {
	ctx := ctxsvc.New(func() time.Duration { return 0 }, 8)
	ctx.SetNum(ctxsvc.KeyBandwidth, 90e3)
	ctx.SetNum(ctxsvc.KeyLatency, 0.03)
	ctx.SetNum(ctxsvc.KeyLoss, loss)
	ctx.SetNum(ctxsvc.KeyEnergyPerByte, 1)
	ctx.SetNum(ctxsvc.KeyBattery, battery)
	return ctx
}

// chattyTask is cheap in bytes but chatty in messages: CS wins it clean,
// loses it lossy.
var chattyTask = Task{
	Interactions: 10, ReqBytes: 40, ReplyBytes: 40,
	CodeBytes: 2000, ResultBytes: 16,
}

func TestAdaptiveDeciderReactsToLoss(t *testing.T) {
	d := &AdaptiveDecider{Objective: Objective{BytesWeight: 1, LatencyWeight: 200}, Alpha: 1}
	clean := pick(d, chattyTask, senseCtx(0, 1))
	if clean != CS {
		t.Fatalf("clean link chose %v, want CS (cheapest bytes)", clean)
	}
	// Loss climbs: the per-message retransmission penalty buries CS's 20
	// message legs and the decider moves to a ship-once paradigm.
	if lossy := pick(d, chattyTask, senseCtx(0.4, 1)); lossy == CS {
		t.Fatalf("lossy link still chose CS")
	}
}

func TestAdaptiveDeciderBatteryAware(t *testing.T) {
	// REV ships once and finishes fast; CS chats through 20 RTTs but moves
	// a tenth of the bytes. On a full battery the latency term hands REV
	// the task; as the battery drains the 1/battery energy scaling makes
	// the byte-frugal CS win.
	task := Task{
		Interactions: 20, ReqBytes: 10, ReplyBytes: 10,
		CodeBytes: 4000, ResultBytes: 16,
	}
	mkCtx := func(battery float64) *ctxsvc.Service {
		ctx := ctxsvc.New(func() time.Duration { return 0 }, 8)
		ctx.SetNum(ctxsvc.KeyBandwidth, 90e3)
		ctx.SetNum(ctxsvc.KeyLatency, 0.05)
		ctx.SetNum(ctxsvc.KeyEnergyPerByte, 1)
		ctx.SetNum(ctxsvc.KeyBattery, battery)
		return ctx
	}
	mk := func() *AdaptiveDecider {
		return &AdaptiveDecider{
			Objective: Objective{BytesWeight: 0.2, LatencyWeight: 1500, EnergyWeight: 0.05},
			Alpha:     1, BatteryAware: true,
		}
	}
	allowed := []Paradigm{CS, REV}
	first, _ := mk().Choose(task, allowed, mkCtx(1))
	if first != REV {
		t.Fatalf("full battery chose %v, want REV (latency dominates)", first)
	}
	second, _ := mk().Choose(task, allowed, mkCtx(0.08))
	if second != CS {
		t.Fatalf("nearly dead battery chose %v, want CS (bytes dominate)", second)
	}
}

func TestAdaptiveDeciderHysteresis(t *testing.T) {
	d := &AdaptiveDecider{Objective: Objective{BytesWeight: 1, LatencyWeight: 200}, Alpha: 1, Hysteresis: 0.5}
	// Start where CS wins big.
	if got, regret := d.Choose(chattyTask, Paradigms(), senseCtx(0, 1)); got != CS || regret != 0 {
		t.Fatalf("initial choice = %v, regret %v", got, regret)
	}
	// At 25% loss a ship-once paradigm already scores somewhat better, but
	// not by the 50% hysteresis margin: the incumbent holds, at a regret...
	if got, regret := d.Choose(chattyTask, Paradigms(), senseCtx(0.25, 1)); got != CS || regret <= 0 {
		t.Fatalf("marginal challenge: chose %v with regret %v, want the incumbent CS held at a regret", got, regret)
	}
	// ... while a decisive regime change still switches, to the best.
	if got, regret := d.Choose(chattyTask, Paradigms(), senseCtx(0.6, 1)); got == CS || regret != 0 {
		t.Fatalf("decisive regime change: chose %v with regret %v", got, regret)
	}
}

func TestMessagesAndEnergyCost(t *testing.T) {
	task := Task{Interactions: 5, ReqBytes: 10, ReplyBytes: 10, CodeBytes: 100, StateBytes: 20, ResultBytes: 4, Hosts: 3}
	if got := Messages(CS, task); got != 10 {
		t.Errorf("Messages(CS) = %d", got)
	}
	if got := Messages(REV, task); got != 2 {
		t.Errorf("Messages(REV) = %d", got)
	}
	if got := Messages(MA, task); got != 4 {
		t.Errorf("Messages(MA) = %d", got)
	}
	l := Link{EnergyPerByte: 2}
	if got := EnergyCost(CS, task, l); got != 200 {
		t.Errorf("EnergyCost(CS) = %v, want 200", got)
	}
	// At 50% loss only the transmitted half (5x10 request bytes) doubles:
	// (100 + 50)x2 = 300.
	l.Loss = 0.5
	if got := EnergyCost(CS, task, l); got != 300 {
		t.Errorf("EnergyCost at 50%% loss = %v, want 300", got)
	}
	// A receive-heavy paradigm is untouched by sender retransmission:
	// COD's uplink share is zero.
	if got := EnergyCost(COD, task, l); got != float64(Traffic(COD, task))*2 {
		t.Errorf("EnergyCost(COD) under loss = %v", got)
	}
	if UplinkBytes(CS, task)+DownlinkBytes(CS, task) != Traffic(CS, task) {
		t.Error("uplink+downlink != traffic")
	}
}

func TestLatencyLossTermVanishesAtZeroLoss(t *testing.T) {
	l := Link{BandwidthBps: 1e5, RTT: 10 * time.Millisecond}
	base := Latency(CS, chattyTask, l, Env{})
	l.Loss = 0
	if got := Latency(CS, chattyTask, l, Env{}); got != base {
		t.Fatalf("zero loss changed latency: %v != %v", got, base)
	}
	l.Loss = 0.25
	lossy := Latency(CS, chattyTask, l, Env{})
	// 20 legs x (0.25/0.75) retransmissions x 2s penalty = ~13.3s extra.
	extra := lossy - base
	retrans := 20 * 0.25 / 0.75 // legs x expected retransmissions per leg
	want := time.Duration(retrans * float64(2*time.Second))
	if diff := extra - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("loss term = %v, want %v", extra, want)
	}
}

func TestDecideValidation(t *testing.T) {
	d := &CostDecider{}
	bad := []Task{
		{Interactions: -1},
		{ReqBytes: -5},
		{ComputeUnits: math.NaN()},
		{ComputeUnits: math.Inf(1)},
		{Hosts: -2},
	}
	for _, task := range bad {
		if _, err := Decide(d, task, Paradigms(), nil); err == nil {
			t.Errorf("hostile task %+v decided without error", task)
		}
	}
	if _, err := Decide(d, Task{}, nil, nil); err == nil {
		t.Error("empty allowed set decided without error")
	}
	if _, err := Decide(d, Task{}, []Paradigm{Paradigm(9)}, nil); err == nil {
		t.Error("garbage paradigm decided without error")
	}
	if _, err := Decide(nil, Task{}, Paradigms(), nil); err == nil {
		t.Error("nil decider decided without error")
	}
}

// TestDecideRestrictsEveryDecider: the allowed set is the one restriction,
// and every decider honours it — on a one-shot task each of them prefers CS
// when free to, and must land inside {REV, COD} when that is all the caller
// can execute. Free comes first, so the adaptive decider enters the narrow
// decision with a CS incumbent that must not leak into it.
func TestDecideRestrictsEveryDecider(t *testing.T) {
	task := Task{Interactions: 1, ReqBytes: 50, ReplyBytes: 50, CodeBytes: 10000, StateBytes: 1000}
	for _, d := range []Decider{&CostDecider{}, DefaultRules(), &AdaptiveDecider{}} {
		if free, err := Decide(d, task, Paradigms(), nil); err != nil || free != CS {
			t.Fatalf("%s unrestricted = %v, %v; want CS", d.Name(), free, err)
		}
		p, err := Decide(d, task, []Paradigm{REV, COD}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p != REV && p != COD {
			t.Errorf("%s chose %v outside {REV, COD}", d.Name(), p)
		}
	}
}
