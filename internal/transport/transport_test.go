package transport

import (
	"testing"
	"time"

	"logmob/internal/netsim"
)

func newSimPair(t *testing.T) (*netsim.Sim, Endpoint, Endpoint) {
	t.Helper()
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	c := netsim.AdHoc
	c.Loss = 0
	net.AddNode("a", netsim.Position{X: 0, Y: 0}, c)
	net.AddNode("b", netsim.Position{X: 10, Y: 0}, c)
	sn := NewSimNetwork(net)
	ea, err := sn.Endpoint("a")
	if err != nil {
		t.Fatalf("Endpoint(a): %v", err)
	}
	eb, err := sn.Endpoint("b")
	if err != nil {
		t.Fatalf("Endpoint(b): %v", err)
	}
	return sim, ea, eb
}

func TestSimEndpointUnknownNode(t *testing.T) {
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	sn := NewSimNetwork(net)
	if _, err := sn.Endpoint("ghost"); err == nil {
		t.Fatal("Endpoint(ghost) should fail")
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}

func TestWallScheduler(t *testing.T) {
	s := NewWallScheduler()
	// A one-shot is a timer armed once: it fires, and one stopped before
	// its deadline does not.
	ch := make(chan struct{})
	s.NewTimer(func() { close(ch) }).Reset(5 * time.Millisecond)
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("one-shot timer never fired")
	}
	if s.Now() <= 0 {
		t.Error("Now() should be positive")
	}

	fired := make(chan struct{}, 1)
	once := s.NewTimer(func() { fired <- struct{}{} })
	once.Reset(20 * time.Millisecond)
	once.Stop()
	select {
	case <-fired:
		t.Error("stopped one-shot timer fired")
	case <-time.After(60 * time.Millisecond):
	}

	// A timer starts stopped, fires once per Reset, a second Reset
	// supersedes the first, and Stop cancels.
	ticks := make(chan time.Duration, 4)
	tm := s.NewTimer(func() { ticks <- s.Now() })
	select {
	case <-ticks:
		t.Error("a new timer fired before any Reset")
	case <-time.After(30 * time.Millisecond):
	}
	armed := s.Now()
	tm.Reset(time.Hour)
	tm.Reset(10 * time.Millisecond)
	select {
	case at := <-ticks:
		if at-armed < 10*time.Millisecond {
			t.Errorf("timer fired %v after Reset(10ms)", at-armed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reset timer never fired")
	}
	tm.Reset(20 * time.Millisecond)
	tm.Stop()
	select {
	case <-ticks:
		t.Error("timer fired again: after one firing, or after Stop")
	case <-time.After(60 * time.Millisecond):
	}
}
