package netsim

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// losslessAdHoc is AdHoc with loss disabled for deterministic delivery tests.
func losslessAdHoc() LinkClass {
	c := AdHoc
	c.Loss = 0
	return c
}

func TestSendDelivery(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	net.AddNode("a", Position{0, 0}, losslessAdHoc())
	net.AddNode("b", Position{10, 0}, losslessAdHoc())

	var gotFrom string
	var gotPayload []byte
	net.SetHandler("b", func(from string, payload []byte) {
		gotFrom = from
		gotPayload = payload
	})
	if err := net.Send("a", "b", []byte("hi")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.RunUntilIdle(0)
	if gotFrom != "a" || string(gotPayload) != "hi" {
		t.Errorf("delivered from=%q payload=%q", gotFrom, gotPayload)
	}
}

func TestSendOutOfRange(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	net.AddNode("a", Position{0, 0}, losslessAdHoc())
	net.AddNode("b", Position{1000, 0}, losslessAdHoc())
	err := net.Send("a", "b", []byte("hi"))
	var unreach *ErrUnreachable
	if !errors.As(err, &unreach) {
		t.Fatalf("Send = %v, want ErrUnreachable", err)
	}
}

func TestInfrastructureAlwaysConnected(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	net.AddNode("phone", Position{0, 0}, GPRS)
	net.AddNode("server", Position{1e6, 1e6}, LAN)
	if !net.Connected("phone", "server") {
		t.Error("GPRS phone should reach LAN server regardless of position")
	}
}

func TestMixedClassConnected(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	net.AddNode("phone", Position{0, 0}, GPRS)
	net.AddNode("pda", Position{5, 0}, losslessAdHoc())
	// Mixed infra/ad-hoc pair connects through the carrier.
	if !net.Connected("phone", "pda") {
		t.Error("mixed infra/ad-hoc pair should be connected")
	}
}

func TestDownNodeUnreachable(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	net.AddNode("a", Position{0, 0}, losslessAdHoc())
	net.AddNode("b", Position{10, 0}, losslessAdHoc())
	net.SetUp("b", false)
	if net.Connected("a", "b") {
		t.Error("down node should be unreachable")
	}
	net.SetUp("b", true)
	if !net.Connected("a", "b") {
		t.Error("restored node should be reachable")
	}
}

func TestCutAndRestoreLink(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	net.AddNode("a", Position{0, 0}, losslessAdHoc())
	net.AddNode("b", Position{10, 0}, losslessAdHoc())
	net.CutLink("a", "b")
	if net.Connected("a", "b") {
		t.Error("cut link should disconnect")
	}
	// Key normalisation: restore with swapped order.
	net.RestoreLink("b", "a")
	if !net.Connected("a", "b") {
		t.Error("restored link should connect")
	}
}

func TestDeliveryTiming(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	c := losslessAdHoc() // 30ms latency, 90e3 B/s
	net.AddNode("a", Position{0, 0}, c)
	net.AddNode("b", Position{10, 0}, c)
	payload := make([]byte, 9000) // 100ms serialisation at 90e3 B/s
	var deliveredAt time.Duration
	net.SetHandler("b", func(string, []byte) { deliveredAt = s.Now() })
	if err := net.Send("a", "b", payload); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.RunUntilIdle(0)
	want := 130 * time.Millisecond
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestUsageAccounting(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	net.AddNode("phone", Position{0, 0}, GPRS)
	gprsNoLoss := GPRS
	gprsNoLoss.Loss = 0
	net.Node("phone").Class = gprsNoLoss
	net.AddNode("server", Position{0, 0}, LAN)
	net.SetHandler("server", func(string, []byte) {})
	payload := make([]byte, 1000)
	if err := net.Send("phone", "server", payload); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.RunUntilIdle(0)

	u := net.UsageOf("phone")
	if u.BytesSent != 1000 || u.MsgsSent != 1 {
		t.Errorf("sender usage = %+v", u)
	}
	wantCost := gprsNoLoss.CostPerByte * 1000
	if u.Cost != wantCost {
		t.Errorf("Cost = %v, want %v", u.Cost, wantCost)
	}
	if u.Energy != gprsNoLoss.EnergyPerByte*1000 {
		t.Errorf("Energy = %v", u.Energy)
	}
	su := net.UsageOf("server")
	if su.BytesRecv != 1000 || su.MsgsRecv != 1 {
		t.Errorf("receiver usage = %+v", su)
	}
	total := net.TotalUsage()
	if total.BytesSent != 1000 || total.BytesRecv != 1000 {
		t.Errorf("total usage = %+v", total)
	}
	net.ResetUsage()
	if got := net.UsageOf("phone"); got != (Usage{}) {
		t.Errorf("usage after reset = %+v", got)
	}
}

func TestLossCharging(t *testing.T) {
	s := NewSim(7)
	net := NewNetwork(s)
	lossy := losslessAdHoc()
	lossy.Loss = 1.0 // always drop
	net.AddNode("a", Position{0, 0}, lossy)
	net.AddNode("b", Position{10, 0}, lossy)
	delivered := false
	net.SetHandler("b", func(string, []byte) { delivered = true })
	dropped := 0
	net.DropHandler = func(from, to string, n int) { dropped++ }
	if err := net.Send("a", "b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.RunUntilIdle(0)
	if delivered {
		t.Error("message delivered despite 100% loss")
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	u := net.UsageOf("a")
	if u.BytesSent != 1 || u.MsgsLost != 1 {
		t.Errorf("sender usage = %+v; lost sends must still be charged", u)
	}

	// Routed sends report every lost hop, relay hops included: over a
	// 3-node chain at 50% loss per hop, DropHandler sees exactly the
	// losses the usage accounts record.
	half := losslessAdHoc()
	half.Loss = 0.5
	for i, id := range []string{"r0", "r1", "r2"} {
		net.AddNode(id, Position{1000 + 25*float64(i), 0}, half)
	}
	net.ResetUsage()
	dropped = 0
	for i := 0; i < 200; i++ {
		if hops, err := net.SendRouted("r0", "r2", []byte("x")); err != nil || hops != 2 {
			t.Fatalf("SendRouted: hops=%d err=%v", hops, err)
		}
	}
	s.RunUntilIdle(0)
	first, relay := net.UsageOf("r0").MsgsLost, net.UsageOf("r1").MsgsLost
	if first == 0 || relay == 0 {
		t.Fatalf("want losses on both hops, got first=%d relay=%d", first, relay)
	}
	if int64(dropped) != first+relay {
		t.Errorf("DropHandler saw %d drops, usage records %d", dropped, first+relay)
	}
}

func TestBroadcast(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	c := losslessAdHoc()
	net.AddNode("a", Position{0, 0}, c)
	net.AddNode("b", Position{10, 0}, c)
	net.AddNode("c", Position{0, 10}, c)
	net.AddNode("far", Position{500, 500}, c)
	got := map[string]bool{}
	for _, id := range []string{"b", "c", "far"} {
		id := id
		net.SetHandler(id, func(string, []byte) { got[id] = true })
	}
	n := net.Broadcast("a", []byte("beacon"))
	s.RunUntilIdle(0)
	if n != 2 {
		t.Errorf("Broadcast reached %d, want 2", n)
	}
	if !got["b"] || !got["c"] || got["far"] {
		t.Errorf("deliveries = %v", got)
	}
}

func TestRoute(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	c := losslessAdHoc() // range 30
	net.AddNode("a", Position{0, 0}, c)
	net.AddNode("m", Position{25, 0}, c)
	net.AddNode("b", Position{50, 0}, c)
	path := net.Route("a", "b")
	if len(path) != 3 || path[0] != "a" || path[1] != "m" || path[2] != "b" {
		t.Fatalf("Route = %v, want [a m b]", path)
	}
	if !net.Reachable("a", "b") {
		t.Error("Reachable = false")
	}
	// The BFS scratch belongs to the network, so a warm route allocates
	// only the path it returns, and a failed one nothing.
	if got := testing.AllocsPerRun(100, func() { path = net.Route("a", "b") }); got != 1 {
		t.Errorf("a warm Route allocates %v times, want 1 (its path)", got)
	}
	net.SetUp("m", false)
	if net.Reachable("a", "b") {
		t.Error("Reachable = true after relay down")
	}
	if got := testing.AllocsPerRun(100, func() { path = net.Route("a", "b") }); got != 0 || path != nil {
		t.Errorf("a failed Route allocates %v times and returns %v, want 0 and nil", got, path)
	}
}

// TestRouteUnknownNodes: a route exists only between nodes that exist, the
// trivial self-route included — Reachable("ghost", "ghost") used to be true
// and SendRouted called an unknown origin a "routed send to self".
func TestRouteUnknownNodes(t *testing.T) {
	net := NewNetwork(NewSim(1))
	net.AddNode("a", Position{0, 0}, losslessAdHoc())
	net.AddNode("b", Position{10, 0}, losslessAdHoc())
	for _, tc := range []struct {
		from, to string
		want     []string
	}{
		{"ghost", "ghost", nil},
		{"ghost", "a", nil},
		{"a", "ghost", nil},
		{"a", "a", []string{"a"}},
		{"a", "b", []string{"a", "b"}},
	} {
		got := net.Route(tc.from, tc.to)
		if !slices.Equal(got, tc.want) {
			t.Errorf("Route(%q, %q) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
		if net.Reachable(tc.from, tc.to) != (tc.want != nil) {
			t.Errorf("Reachable(%q, %q) = %v", tc.from, tc.to, !(tc.want != nil))
		}
	}
	var unreach *ErrUnreachable
	if _, err := net.SendRouted("ghost", "ghost", []byte("x")); !errors.As(err, &unreach) {
		t.Errorf("SendRouted from an unknown node = %v, want ErrUnreachable", err)
	}
}

func TestSendRouted(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	c := losslessAdHoc()
	net.AddNode("a", Position{0, 0}, c)
	net.AddNode("m", Position{25, 0}, c)
	net.AddNode("b", Position{50, 0}, c)
	var got []byte
	net.SetHandler("b", func(_ string, p []byte) { got = p })
	hops, err := net.SendRouted("a", "b", []byte("msg"))
	if err != nil {
		t.Fatalf("SendRouted: %v", err)
	}
	if hops != 2 {
		t.Errorf("hops = %d, want 2", hops)
	}
	s.RunUntilIdle(0)
	if string(got) != "msg" {
		t.Errorf("payload = %q", got)
	}
	// Both the source and the relay are charged.
	if net.UsageOf("a").MsgsSent != 1 || net.UsageOf("m").MsgsSent != 1 {
		t.Errorf("per-hop charging wrong: a=%+v m=%+v", net.UsageOf("a"), net.UsageOf("m"))
	}
}

func TestSendRoutedNoPath(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	c := losslessAdHoc()
	net.AddNode("a", Position{0, 0}, c)
	net.AddNode("b", Position{500, 0}, c)
	if _, err := net.SendRouted("a", "b", []byte("msg")); err == nil {
		t.Fatal("SendRouted should fail with no path")
	}
}

func TestNeighborsDeterministicOrder(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	c := losslessAdHoc()
	net.AddNode("n1", Position{0, 0}, c)
	net.AddNode("n3", Position{5, 0}, c)
	net.AddNode("n2", Position{0, 5}, c)
	got := net.Neighbors("n1")
	if len(got) != 2 || got[0] != "n3" || got[1] != "n2" {
		t.Errorf("Neighbors = %v, want insertion order [n3 n2]", got)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	net.AddNode("a", Position{0, 0}, AdHoc)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	net.AddNode("a", Position{1, 1}, AdHoc)
}

func TestRandomWaypointMovesWithinField(t *testing.T) {
	s := NewSim(3)
	net := NewNetwork(s)
	c := losslessAdHoc()
	net.AddNode("a", Position{50, 50}, c)
	model := &RandomWaypoint{FieldW: 100, FieldH: 100, SpeedMin: 1, SpeedMax: 5, Pause: time.Second}
	m := net.StartMobility(model, time.Second, "a")
	start := net.Node("a").Pos()
	s.Run(200 * time.Second)
	m.Stop()
	end := net.Node("a").Pos()
	if start == end {
		t.Error("node never moved")
	}
	if end.X < 0 || end.X > 100 || end.Y < 0 || end.Y > 100 {
		t.Errorf("node left field: %+v", end)
	}
	s.RunUntilIdle(0) // drains without panic after Stop
}

func TestWaypathReachesEnd(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	net.AddNode("walker", Position{0, 0}, losslessAdHoc())
	model := &Waypath{Points: []Position{{10, 0}, {10, 10}}, Speed: 1}
	net.StartMobility(model, time.Second, "walker")
	s.Run(30 * time.Second)
	end := net.Node("walker").Pos()
	if end.Dist(Position{10, 10}) > 0.001 {
		t.Errorf("walker at %+v, want (10,10)", end)
	}
}

func TestMobilityChangesConnectivity(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	c := losslessAdHoc() // range 30
	net.AddNode("fixed", Position{0, 0}, c)
	net.AddNode("walker", Position{100, 0}, c)
	if net.Connected("fixed", "walker") {
		t.Fatal("should start disconnected")
	}
	model := &Waypath{Points: []Position{{10, 0}}, Speed: 10}
	net.StartMobility(model, time.Second, "walker")
	s.Run(20 * time.Second)
	if !net.Connected("fixed", "walker") {
		t.Error("walker should be in range after walking in")
	}
}

// TestMobilityTickAllocs pins a warm mobility tick at zero allocations: the
// tick re-arms its one timer from the timer's own callback, so it files a
// recycled event and no closure. The walkers stay inside one small field,
// so the step itself allocates nothing once its buffers have grown.
func TestMobilityTickAllocs(t *testing.T) {
	s := NewSim(3)
	net := NewNetwork(s)
	names := []string{"a", "b", "c", "d"}
	for i, id := range names {
		net.AddNode(id, Position{X: float64(i), Y: 1}, losslessAdHoc())
	}
	model := &RandomWaypoint{FieldW: 10, FieldH: 10, SpeedMin: 1, SpeedMax: 2}
	m := net.StartMobility(model, time.Second, names...)
	tick := func() { s.RunFor(time.Second) }
	for i := 0; i < 1000; i++ {
		tick()
	}
	before := net.Node("a").Pos()
	if got := testing.AllocsPerRun(200, tick); got != 0 {
		t.Errorf("a warm mobility tick allocates %v times, want 0", got)
	}
	if net.Node("a").Pos() == before {
		t.Error("vacuous: the walkers did not move")
	}
	m.Stop()
	if s.RunUntilIdle(0); s.Pending() != 0 {
		t.Errorf("%d events pending after Stop and a drain", s.Pending())
	}
}
