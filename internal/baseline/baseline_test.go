package baseline

import (
	"testing"
	"time"

	"logmob/internal/lmu"
	"logmob/internal/netsim"
	"logmob/internal/registry"
)

func unit(name string, payload int) *lmu.Unit {
	return &lmu.Unit{
		Manifest: lmu.Manifest{Name: name, Version: "1.0", Kind: lmu.KindComponent},
		Code:     make([]byte, payload),
	}
}

func TestPreloadAllFit(t *testing.T) {
	reg := registry.New(0)
	footprint := Preload(reg, []*lmu.Unit{unit("a", 100), unit("b", 200)})
	if n := len(reg.List()); n != 2 {
		t.Fatalf("installed %d units, want 2", n)
	}
	if footprint != reg.Used() || footprint == 0 {
		t.Errorf("footprint = %d", footprint)
	}
}

func TestPreloadOverflow(t *testing.T) {
	small := unit("a", 100)
	reg := registry.New(int64(small.Size()) + 10)
	footprint := Preload(reg, []*lmu.Unit{unit("a", 100), unit("b", 100), unit("c", 100)})
	if n := len(reg.List()); n != 1 {
		t.Errorf("installed %d units, want 1", n)
	}
	if footprint != int64(small.Size()) {
		t.Errorf("footprint = %d, want %d", footprint, small.Size())
	}
	// Preloaded units are pinned: nothing can evict them.
	if err := reg.Put(unit("d", 100)); err == nil {
		t.Error("pinned preload was evicted by a later Put")
	}
}

func TestMessengerDeliversWhenConnected(t *testing.T) {
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	c := netsim.AdHoc
	c.Loss = 0
	net.AddNode("a", netsim.Position{X: 0, Y: 0}, c)
	net.AddNode("m", netsim.Position{X: 25, Y: 0}, c)
	net.AddNode("b", netsim.Position{X: 50, Y: 0}, c)
	arrived := false
	net.SetHandler("b", func(string, []byte) { arrived = true })

	m := NewMessenger(net, 5*time.Minute)
	var out MessageOutcome
	m.SendUntilConfirmed("a", "b", []byte("x"), func() bool { return arrived }, func(o MessageOutcome) { out = o })
	sim.RunFor(time.Minute)
	if !out.Delivered || out.Attempts != 1 {
		t.Errorf("outcome = %+v", out)
	}
	if !arrived {
		t.Error("payload never arrived")
	}
}

func TestMessengerRetriesThroughPartition(t *testing.T) {
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	c := netsim.AdHoc
	c.Loss = 0
	net.AddNode("a", netsim.Position{X: 0, Y: 0}, c)
	net.AddNode("b", netsim.Position{X: 500, Y: 0}, c)
	arrived := false
	net.SetHandler("b", func(string, []byte) { arrived = true })

	m := NewMessenger(net, time.Minute)
	var out MessageOutcome
	m.SendUntilConfirmed("a", "b", []byte("x"), func() bool { return arrived }, func(o MessageOutcome) { out = o })
	// Heal the partition at t=10s by walking b into range.
	sim.Schedule(10*time.Second, func() {
		net.SetPos("b", netsim.Position{X: 20, Y: 0})
	})
	sim.RunFor(2 * time.Minute)
	if !out.Delivered {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Attempts < 2 {
		t.Errorf("Attempts = %d, want retries", out.Attempts)
	}
	if out.DeliveredAt < 10*time.Second {
		t.Errorf("DeliveredAt = %v, before partition healed", out.DeliveredAt)
	}
}

func TestMessengerGivesUpAtDeadline(t *testing.T) {
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	c := netsim.AdHoc
	c.Loss = 0
	net.AddNode("a", netsim.Position{X: 0, Y: 0}, c)
	net.AddNode("b", netsim.Position{X: 500, Y: 0}, c)
	m := NewMessenger(net, 10*time.Second)
	var out MessageOutcome
	fired := 0
	m.SendUntilConfirmed("a", "b", []byte("x"), func() bool { return false }, func(o MessageOutcome) { out = o; fired++ })
	sim.RunFor(time.Minute)
	if fired != 1 {
		t.Fatalf("done fired %d times", fired)
	}
	if out.Delivered {
		t.Error("claimed delivery through a permanent partition")
	}
	if out.Attempts < 5 {
		t.Errorf("Attempts = %d", out.Attempts)
	}
}

func TestSendUntilConfirmedSurvivesLoss(t *testing.T) {
	sim := netsim.NewSim(5)
	net := netsim.NewNetwork(sim)
	lossy := netsim.AdHoc
	lossy.Loss = 0.95 // very lossy link: one-shot almost always fails
	net.AddNode("a", netsim.Position{X: 0, Y: 0}, lossy)
	net.AddNode("b", netsim.Position{X: 10, Y: 0}, lossy)
	got := false
	net.SetHandler("b", func(string, []byte) { got = true })

	m := NewMessenger(net, 5*time.Minute)
	var out MessageOutcome
	m.SendUntilConfirmed("a", "b", []byte("x"), func() bool { return got }, func(o MessageOutcome) { out = o })
	sim.RunFor(10 * time.Minute)
	if !out.Delivered {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Attempts < 2 {
		t.Errorf("Attempts = %d, expected retransmissions over lossy link", out.Attempts)
	}
}
