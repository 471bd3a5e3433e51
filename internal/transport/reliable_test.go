package transport

import (
	"testing"
	"time"

	"logmob/internal/netsim"
)

// reliablePair builds two simulated nodes wrapped in Reliable layers.
func reliablePair(t *testing.T, seed int64, cfg ReliableConfig) (*netsim.Sim, *netsim.Network, *Reliable, *Reliable) {
	t.Helper()
	sim := netsim.NewSim(seed)
	net := netsim.NewNetwork(sim)
	class := netsim.AdHoc
	class.Loss = 0
	net.AddNode("a", netsim.Position{}, class)
	net.AddNode("b", netsim.Position{X: 5}, class)
	sn := NewSimNetwork(net)
	epA, err := sn.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := sn.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	return sim, net, NewReliable(epA, sim, cfg), NewReliable(epB, sim, cfg)
}

// TestReliableRetriesThroughLoss injects heavy impairment loss and checks
// that retries push delivery well above the raw link rate, with every
// outcome accounted as acked or given up.
func TestReliableRetriesThroughLoss(t *testing.T) {
	sim, net, ra, rb := reliablePair(t, 2, ReliableConfig{Budget: 4, Timeout: time.Second})
	net.ImpairAll(netsim.Impairment{Drop: 0.5})
	delivered := 0
	rb.SetHandler(func(string, []byte) { delivered++ })
	ra.SetHandler(func(string, []byte) {})
	const sends = 300
	for i := 0; i < sends; i++ {
		_ = ra.Send("b", []byte("x"))
		sim.RunFor(5 * time.Second)
	}
	sim.RunFor(time.Minute)
	st := ra.Stats()
	if st.Acked+st.GaveUp != sends {
		t.Fatalf("acked %d + gave up %d != sent %d", st.Acked, st.GaveUp, sends)
	}
	if st.Retries == 0 {
		t.Fatal("no retries at 50% loss")
	}
	// Raw delivery at 50% loss would be ~0.5; four attempts with acked
	// confirmation should land >0.85 (ack losses cause duplicates, not
	// delivery failures).
	if ratio := float64(delivered) / sends; ratio < 0.85 {
		t.Fatalf("delivered ratio %.3f with budget 4, want > 0.85", ratio)
	}
	if delivered < int(st.Acked) {
		t.Fatalf("delivered %d < acked %d: an ack without a delivery is impossible", delivered, st.Acked)
	}
}

// TestReliableGivesUpOnDeadPeer checks the budget: sends to a down node
// burn their attempts and are abandoned, without blocking.
func TestReliableGivesUpOnDeadPeer(t *testing.T) {
	sim, net, ra, rb := reliablePair(t, 3, ReliableConfig{Budget: 3, Timeout: time.Second})
	rb.SetHandler(func(string, []byte) { t.Fatal("down node received a message") })
	ra.SetHandler(func(string, []byte) {})
	net.SetUp("b", false)
	if err := ra.Send("b", []byte("x")); err != nil {
		t.Fatalf("Send must queue for retry, got %v", err)
	}
	sim.RunFor(time.Minute)
	st := ra.Stats()
	if st.GaveUp != 1 || st.Acked != 0 {
		t.Fatalf("stats %+v, want exactly one give-up", st)
	}
	if st.Retries != 2 {
		t.Fatalf("retries %d, want 2 (budget 3 = first try + 2 retries)", st.Retries)
	}
}

// TestReliableRecoversRejoiningPeer checks the churn story: the peer is
// down for the first attempt but back before the budget runs out, and the
// message arrives.
func TestReliableRecoversRejoiningPeer(t *testing.T) {
	sim, net, ra, rb := reliablePair(t, 4, ReliableConfig{Budget: 5, Timeout: time.Second})
	delivered := 0
	rb.SetHandler(func(string, []byte) { delivered++ })
	ra.SetHandler(func(string, []byte) {})
	net.SetUp("b", false)
	sim.Schedule(2500*time.Millisecond, func() { net.SetUp("b", true) })
	_ = ra.Send("b", []byte("x"))
	sim.RunFor(time.Minute)
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1 after rejoin", delivered)
	}
	st := ra.Stats()
	if st.Acked != 1 || st.GaveUp != 0 || st.Retries == 0 {
		t.Fatalf("stats %+v, want acked-after-retry", st)
	}
}

// TestReliableMalformedFrame checks hostile payloads are dropped, not
// crashed on.
func TestReliableMalformedFrame(t *testing.T) {
	sim, net, _, rb := reliablePair(t, 6, ReliableConfig{})
	rb.SetHandler(func(string, []byte) { t.Fatal("malformed frame delivered") })
	// Raw sends from a bypass the a-side Reliable framing entirely.
	for _, raw := range [][]byte{nil, {}, {relData}, {relData, 0xff}, {relAck}, {99, 1, 2}} {
		if err := net.Send("a", "b", raw); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(5 * time.Second)
}
