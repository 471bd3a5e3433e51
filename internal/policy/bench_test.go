package policy

import (
	"testing"
	"time"

	"logmob/internal/ctxsvc"
)

// liveDecision returns one live decision as a call: a validated,
// EWMA-smoothed, hysteretic paradigm selection over a sensed context — the
// hot call the adaptation engine makes before every interaction.
func liveDecision() func() error {
	ctx := ctxsvc.New(func() time.Duration { return 0 }, 16)
	ctx.SetNum(ctxsvc.KeyBandwidth, 90e3)
	ctx.SetNum(ctxsvc.KeyLatency, 0.03)
	ctx.SetNum(ctxsvc.KeyLoss, 0.15)
	ctx.SetNum(ctxsvc.KeyEnergyPerByte, 1)
	ctx.SetNum(ctxsvc.KeyBattery, 0.6)
	d := &AdaptiveDecider{
		Objective:    Objective{BytesWeight: 0.3, LatencyWeight: 600, EnergyWeight: 0.3},
		BatteryAware: true,
	}
	task := Task{
		Interactions: 6, ReqBytes: 64, ReplyBytes: 64,
		CodeBytes: 1500, StateBytes: 200, ResultBytes: 32, ComputeUnits: 0.5,
	}
	allowed := Paradigms()
	return func() error {
		_, err := Decide(d, task, allowed, ctx)
		return err
	}
}

// BenchmarkDecide measures one live decision (see liveDecision).
func BenchmarkDecide(b *testing.B) {
	decide := liveDecision()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decide(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecideAllocs pins the adaptation engine's per-interaction cost: once
// the decider has smoothed a first sample, a decision allocates nothing.
func TestDecideAllocs(t *testing.T) {
	decide := liveDecision()
	if err := decide(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if err := decide(); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("a live decision allocates %v times, want 0", got)
	}
}
