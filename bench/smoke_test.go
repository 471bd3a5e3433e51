package main

import (
	"testing"
	"time"
)

// smoke runs w through the real measuring loop at the smallest size: three
// set-ups, two timed rounds.
func smoke(t *testing.T, w workload) {
	t.Helper()
	run, err := measure(w, time.Now(), 1, 0.001, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.failed != 0 || run.attempted == 0 {
		t.Fatalf("%d of %d ops failed: %v", run.failed, run.attempted, run.firstErr)
	}
	v := run.endToEndValues()
	for _, d := range endToEnd {
		if v[d.Name] <= 0 {
			t.Errorf("%s = %v, want a positive value", d.Name, v[d.Name])
		}
	}
	// Set-up is a whole warm-up, never a few milliseconds of process start:
	// at least the order of one op. (Not >= op_wall_s outright: a simulator
	// set-up is exactly one op, so noise alone puts it either side.)
	if v["setup_s"] < v["op_wall_s"]/2 {
		t.Errorf("setup_s %v is under half of op_wall_s %v", v["setup_s"], v["op_wall_s"])
	}
}

// smallSim is a simulator workload shrunk to test size. Other parameters
// mean other tables, so the pins do not apply and each seed is only held to
// repeating itself.
func smallSim(t *testing.T, name string, params map[string]float64) *simWork {
	t.Helper()
	w, err := newSimWork(name)
	if err != nil {
		t.Fatal(err)
	}
	w.params, w.want, w.pool = params, nil, []int64{1}
	return w
}

func TestSmokeFestival(t *testing.T) {
	smoke(t, smallSim(t, "festival", map[string]float64{"attendees": 200, "field": 480}))
}

func TestSmokeBlackout(t *testing.T) {
	smoke(t, smallSim(t, "blackout", map[string]float64{"attendees": 150, "field": 450, "duration": 60}))
}

func smallWire(t *testing.T, name string, mix ...mixPart) *wireWork {
	t.Helper()
	w, err := newWireWork(name)
	if err != nil {
		t.Fatal(err)
	}
	w.spec.mix, w.spec.warmOps, w.spec.setUps = mix, 1, 3 // one warm-up round
	return w
}

func TestSmokeWireMix(t *testing.T) {
	smoke(t, smallWire(t, "wire_mix", mixPart{opCall, 14}, mixPart{opEval, 2}, mixPart{opFetch, 2}, mixPart{opAgent, 2}))
}

func TestSmokeWireBulk(t *testing.T) {
	smoke(t, smallWire(t, "wire_bulk", mixPart{opFetch, 4}, mixPart{opPublish, 2}, mixPart{opEval, 2}))
}

// TestPinnedDigestGate pins a small scenario's digest, expects the op to
// pass against it, flips one character of the pin and expects it to fail.
func TestPinnedDigestGate(t *testing.T) {
	w := smallSim(t, "festival", map[string]float64{"attendees": 100, "field": 340})
	if err := w.runOne(1); err != nil {
		t.Fatal(err)
	}
	pin := w.seen["1"]
	w.want = map[string]string{"1": pin}
	if err := w.runOne(1); err != nil {
		t.Fatalf("op failed against its own digest: %v", err)
	}
	flipped := []byte(pin)
	flipped[0] ^= 1
	w.want = map[string]string{"1": string(flipped)}
	if err := w.runOne(1); err == nil {
		t.Fatal("an op passed against a corrupted pin")
	}
}
