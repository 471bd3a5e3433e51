package discovery

import (
	"testing"
	"time"

	"logmob/internal/netsim"
)

// TestBeaconBatchMatchesPerHost is the cadence differential: the same field
// of beaconing nodes driven as n batches of one (each Start arms its own
// private cadence) and as one batch of n must produce identical traffic —
// same Sent and Heard counters, same cached ads — because sharing a batch
// only relocates the re-arm, never the broadcast order.
func TestBeaconBatchMatchesPerHost(t *testing.T) {
	const n = 8
	const ivl = 3 * time.Second
	type world struct {
		r   *rig
		bcn []*Beacon
	}
	build := func(batched bool) *world {
		w := &world{r: newRig(t)}
		var g *BeaconBatch
		if batched {
			g = NewBeaconBatch(w.r.sim, ivl)
		}
		for i := 0; i < n; i++ {
			ep := w.r.addNode(t, string(rune('a'+i)), netsim.Position{X: float64(i)}, netsim.AdHoc)
			b := NewBeacon(ep, w.r.sim, ivl)
			b.Advertise(Ad{Service: "svc/" + ep.Addr()})
			if batched {
				g.Add(b)
			} else {
				b.Start()
			}
			w.bcn = append(w.bcn, b)
		}
		w.r.sim.Run(20 * time.Second)
		return w
	}
	perHost, batch := build(false), build(true)
	for i := range perHost.bcn {
		ph, ba := perHost.bcn[i], batch.bcn[i]
		if ph.Sent != ba.Sent || ph.Heard != ba.Heard {
			t.Errorf("beacon %d: per-host sent/heard %d/%d, batched %d/%d",
				i, ph.Sent, ph.Heard, ba.Sent, ba.Heard)
		}
		if ph.CacheSize() != ba.CacheSize() {
			t.Errorf("beacon %d: cache size %d vs %d", i, ph.CacheSize(), ba.CacheSize())
		}
	}
	if batch.bcn[0].batch.Len() != n {
		t.Errorf("batch has %d members, want %d", batch.bcn[0].batch.Len(), n)
	}
}

// TestBeaconBatchStopStart pins member stop/rejoin semantics: a stopped
// member is skipped by the shared tick (Sent frozen), and Start broadcasts
// immediately then rides the next batch tick.
func TestBeaconBatchStopStart(t *testing.T) {
	const ivl = 3 * time.Second
	r := newRig(t)
	g := NewBeaconBatch(r.sim, ivl)
	epA := r.addNode(t, "a", netsim.Position{}, netsim.AdHoc)
	epB := r.addNode(t, "b", netsim.Position{X: 1}, netsim.AdHoc)
	a, b := NewBeacon(epA, r.sim, ivl), NewBeacon(epB, r.sim, ivl)
	a.Advertise(Ad{Service: "svc/a"})
	b.Advertise(Ad{Service: "svc/b"})
	g.Add(a)
	g.Add(b)

	r.sim.Run(7 * time.Second) // ticks at 0, 3, 6
	if a.Sent != 3 || b.Sent != 3 {
		t.Fatalf("sent a=%d b=%d, want 3/3", a.Sent, b.Sent)
	}
	a.Stop()
	r.sim.Run(13 * time.Second) // ticks at 9, 12 skip a
	if a.Sent != 3 || b.Sent != 5 {
		t.Fatalf("after stop: sent a=%d b=%d, want 3/5", a.Sent, b.Sent)
	}
	a.Start() // immediate broadcast, then back on the shared cadence
	if a.Sent != 4 {
		t.Fatalf("restart did not broadcast immediately: sent=%d", a.Sent)
	}
	r.sim.Run(16 * time.Second) // tick at 15
	if a.Sent != 5 || b.Sent != 6 {
		t.Fatalf("after restart: sent a=%d b=%d, want 5/6", a.Sent, b.Sent)
	}
}

// TestBeaconBatchIdleWhenAllStopped pins the timer invariant: the shared
// timer is armed exactly while a member runs. With every member stopped the
// simulator goes idle, and one Start re-arms the cadence from that moment.
func TestBeaconBatchIdleWhenAllStopped(t *testing.T) {
	const ivl = 3 * time.Second
	r := newRig(t)
	g := NewBeaconBatch(r.sim, ivl)
	var bcn []*Beacon
	for i := 0; i < 4; i++ {
		ep := r.addNode(t, string(rune('a'+i)), netsim.Position{X: float64(i)}, netsim.AdHoc)
		b := NewBeacon(ep, r.sim, ivl)
		b.Advertise(Ad{Service: "svc/" + ep.Addr()})
		g.Add(b)
		bcn = append(bcn, b)
	}
	r.sim.Run(4 * time.Second) // ticks at 0, 3
	g.Stop()
	r.sim.RunUntilIdle(1000) // an armed timer would re-arm forever
	for i, b := range bcn {
		if b.Sent != 2 {
			t.Errorf("beacon %d sent %d after every member stopped, want 2", i, b.Sent)
		}
	}

	bcn[1].Start()
	at := r.sim.Now()
	r.sim.Run(at + ivl + time.Second) // immediate beacon, then one tick
	if bcn[1].Sent != 4 {
		t.Errorf("restarted member sent %d, want 4", bcn[1].Sent)
	}
	if bcn[0].Sent != 2 {
		t.Errorf("stopped member sent %d, want 2", bcn[0].Sent)
	}
}

// TestBeaconBatchIntervalMismatch pins the wiring guard: a beacon built
// with a different interval cannot join the batch.
func TestBeaconBatchIntervalMismatch(t *testing.T) {
	r := newRig(t)
	g := NewBeaconBatch(r.sim, 3*time.Second)
	ep := r.addNode(t, "a", netsim.Position{}, netsim.AdHoc)
	b := NewBeacon(ep, r.sim, 5*time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted a beacon with a mismatched interval")
		}
	}()
	g.Add(b)
}
