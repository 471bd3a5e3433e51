package transport

import (
	"sync"
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

func TestSimEndpointSend(t *testing.T) {
	sim, ea, eb := newSimPair(t)
	var got string
	eb.SetHandler(func(from string, payload []byte) {
		got = from + ":" + string(payload)
	})
	if err := ea.Send("b", []byte("ping")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	sim.RunUntilIdle(0)
	if got != "a:ping" {
		t.Errorf("received %q", got)
	}
}

func TestSimEndpointNeighbors(t *testing.T) {
	_, ea, _ := newSimPair(t)
	n := ea.Neighbors()
	if len(n) != 1 || n[0] != "b" {
		t.Errorf("Neighbors = %v", n)
	}
}

func TestSimEndpointBroadcast(t *testing.T) {
	sim, ea, eb := newSimPair(t)
	count := 0
	eb.SetHandler(func(string, []byte) { count++ })
	if n := ea.Broadcast([]byte("hello")); n != 1 {
		t.Errorf("Broadcast = %d, want 1", n)
	}
	sim.RunUntilIdle(0)
	if count != 1 {
		t.Errorf("deliveries = %d", count)
	}
}

func TestSimEndpointClose(t *testing.T) {
	_, ea, eb := newSimPair(t)
	if err := eb.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ea.Send("b", []byte("ping")); err == nil {
		t.Error("Send to closed endpoint should fail")
	}
}

func TestSimEndpointUnknownNode(t *testing.T) {
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	sn := NewSimNetwork(net)
	if _, err := sn.Endpoint("ghost"); err == nil {
		t.Fatal("Endpoint(ghost) should fail")
	}
}

func newTCPPair(t *testing.T) (*TCPEndpoint, *TCPEndpoint) {
	t.Helper()
	ea, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	t.Cleanup(func() { ea.Close() })
	eb, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	t.Cleanup(func() { eb.Close() })
	return ea, eb
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

func TestTCPSendAndReply(t *testing.T) {
	ea, eb := newTCPPair(t)

	var mu sync.Mutex
	var atB, atA []string
	eb.SetHandler(func(from string, payload []byte) {
		mu.Lock()
		atB = append(atB, string(payload))
		mu.Unlock()
		// Reply over the same logical channel.
		_ = eb.Send(from, []byte("pong"))
	})
	ea.SetHandler(func(from string, payload []byte) {
		mu.Lock()
		atA = append(atA, string(payload))
		mu.Unlock()
	})

	if err := ea.Send(eb.Addr(), []byte("ping")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(atA) == 1 && len(atB) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if atB[0] != "ping" || atA[0] != "pong" {
		t.Errorf("atB=%v atA=%v", atB, atA)
	}
}

func TestTCPConnectionReuse(t *testing.T) {
	ea, eb := newTCPPair(t)
	var mu sync.Mutex
	count := 0
	eb.SetHandler(func(string, []byte) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	for i := 0; i < 10; i++ {
		if err := ea.Send(eb.Addr(), []byte("m")); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count == 10
	})
	if n := len(ea.Neighbors()); n != 1 {
		t.Errorf("Neighbors = %d, want 1 reused connection", n)
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	ea, eb := newTCPPair(t)
	if err := ea.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ea.Send(eb.Addr(), []byte("m")); err == nil {
		t.Error("Send after Close should fail")
	}
	// Double close is safe.
	if err := ea.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestTCPDialFailure(t *testing.T) {
	ea, _ := newTCPPair(t)
	// Port 1 on localhost is almost certainly closed.
	if err := ea.Send("127.0.0.1:1", []byte("m")); err == nil {
		t.Error("Send to closed port should fail")
	}
}

func TestWallScheduler(t *testing.T) {
	s := NewWallScheduler()
	ch := make(chan struct{})
	s.After(5*time.Millisecond, func() { close(ch) })
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("After never fired")
	}
	if s.Now() <= 0 {
		t.Error("Now() should be positive")
	}

	fired := make(chan struct{}, 1)
	cancel := s.After(20*time.Millisecond, func() { fired <- struct{}{} })
	cancel()
	select {
	case <-fired:
		t.Error("cancelled After fired")
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
