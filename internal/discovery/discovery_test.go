package discovery

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"logmob/internal/netsim"
	"logmob/internal/transport"
	"logmob/internal/wire"
)

// rig is a simulated environment with a lookup server plus client nodes.
type rig struct {
	sim *netsim.Sim
	net *netsim.Network
	sn  *transport.SimNetwork
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	return &rig{sim: sim, net: net, sn: transport.NewSimNetwork(net)}
}

func (r *rig) addNode(t *testing.T, id string, pos netsim.Position, class netsim.LinkClass) transport.Endpoint {
	t.Helper()
	class.Loss = 0
	r.net.AddNode(id, pos, class)
	ep, err := r.sn.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func TestQueryMatches(t *testing.T) {
	ad := Ad{Service: "print", Provider: "p", Attrs: map[string]string{"color": "yes", "floor": "2"}}
	cases := []struct {
		q    Query
		want bool
	}{
		{Query{Service: "print"}, true},
		{Query{Service: "scan"}, false},
		{Query{}, true},
		{Query{Service: "print", Attrs: map[string]string{"color": "yes"}}, true},
		{Query{Service: "print", Attrs: map[string]string{"color": "no"}}, false},
		{Query{Attrs: map[string]string{"floor": "2", "color": "yes"}}, true},
		{Query{Attrs: map[string]string{"missing": "x"}}, false},
	}
	for i, c := range cases {
		if got := c.q.Matches(ad); got != c.want {
			t.Errorf("case %d: Matches = %v, want %v", i, got, c.want)
		}
	}
}

func TestLookupRegisterAndFind(t *testing.T) {
	r := newRig(t)
	epS := r.addNode(t, "lookup", netsim.Position{}, netsim.LAN)
	epP := r.addNode(t, "provider", netsim.Position{}, netsim.GPRS)
	epC := r.addNode(t, "client", netsim.Position{}, netsim.GPRS)

	server := NewLookupServer(epS, r.sim)
	provider := NewLookupClient(epP, r.sim, "lookup")
	client := NewLookupClient(epC, r.sim, "lookup")

	if err := provider.Advertise(Ad{Service: "cinema/tickets", Attrs: map[string]string{"city": "london"}}); err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	r.sim.RunFor(2 * time.Second)

	var got []Ad
	client.Find(Query{Service: "cinema/tickets"}, func(ads []Ad) { got = ads })
	r.sim.RunFor(5 * time.Second)

	if len(got) != 1 {
		t.Fatalf("Find returned %d ads, want 1", len(got))
	}
	if got[0].Provider != "provider" || got[0].Attrs["city"] != "london" {
		t.Errorf("ad = %+v", got[0])
	}
	if server.Registrations == 0 || server.Queries != 1 {
		t.Errorf("server counters = %d regs, %d queries", server.Registrations, server.Queries)
	}
}

func TestLookupNoMatch(t *testing.T) {
	r := newRig(t)
	epS := r.addNode(t, "lookup", netsim.Position{}, netsim.LAN)
	epC := r.addNode(t, "client", netsim.Position{}, netsim.GPRS)
	NewLookupServer(epS, r.sim)
	client := NewLookupClient(epC, r.sim, "lookup")

	called := false
	var got []Ad
	client.Find(Query{Service: "none"}, func(ads []Ad) { called = true; got = ads })
	r.sim.RunFor(5 * time.Second)
	if !called {
		t.Fatal("callback never invoked")
	}
	if len(got) != 0 {
		t.Errorf("got %d ads", len(got))
	}
}

func TestLookupLeaseExpiry(t *testing.T) {
	r := newRig(t)
	epS := r.addNode(t, "lookup", netsim.Position{}, netsim.LAN)
	epP := r.addNode(t, "provider", netsim.Position{}, netsim.GPRS)
	epC := r.addNode(t, "client", netsim.Position{}, netsim.GPRS)
	server := NewLookupServer(epS, r.sim)
	provider := NewLookupClient(epP, r.sim, "lookup")
	client := NewLookupClient(epC, r.sim, "lookup")

	if err := provider.Advertise(Ad{Service: "svc", TTL: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(2 * time.Second)
	if server.Leases() != 1 {
		t.Fatalf("Leases = %d", server.Leases())
	}
	// Kill the provider so renewals stop reaching the server.
	r.net.SetUp("provider", false)
	r.sim.RunFor(60 * time.Second)
	var got []Ad
	client.Find(Query{Service: "svc"}, func(ads []Ad) { got = ads })
	r.sim.RunFor(10 * time.Second)
	if len(got) != 0 {
		t.Errorf("expired lease still discoverable: %+v", got)
	}
}

func TestLookupLeaseRenewal(t *testing.T) {
	r := newRig(t)
	epS := r.addNode(t, "lookup", netsim.Position{}, netsim.LAN)
	epP := r.addNode(t, "provider", netsim.Position{}, netsim.GPRS)
	epC := r.addNode(t, "client", netsim.Position{}, netsim.GPRS)
	NewLookupServer(epS, r.sim)
	provider := NewLookupClient(epP, r.sim, "lookup")
	client := NewLookupClient(epC, r.sim, "lookup")

	if err := provider.Advertise(Ad{Service: "svc", TTL: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	// Far beyond one TTL; renewals must keep the lease alive.
	r.sim.RunFor(120 * time.Second)
	var got []Ad
	client.Find(Query{Service: "svc"}, func(ads []Ad) { got = ads })
	r.sim.RunFor(10 * time.Second)
	if len(got) != 1 {
		t.Errorf("renewed lease lost: got %d ads", len(got))
	}
}

func TestLookupWithdraw(t *testing.T) {
	r := newRig(t)
	epS := r.addNode(t, "lookup", netsim.Position{}, netsim.LAN)
	epP := r.addNode(t, "provider", netsim.Position{}, netsim.GPRS)
	epC := r.addNode(t, "client", netsim.Position{}, netsim.GPRS)
	NewLookupServer(epS, r.sim)
	provider := NewLookupClient(epP, r.sim, "lookup")
	client := NewLookupClient(epC, r.sim, "lookup")

	if err := provider.Advertise(Ad{Service: "svc", TTL: time.Hour}); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(2 * time.Second)
	provider.Withdraw("svc")
	r.sim.RunFor(5 * time.Second)
	var got []Ad
	client.Find(Query{Service: "svc"}, func(ads []Ad) { got = ads })
	r.sim.RunFor(10 * time.Second)
	if len(got) != 0 {
		t.Errorf("withdrawn service still discoverable")
	}
}

// TestLookupRenewalCadence: a service's lease renewals ride one timer,
// every TTL/2. Advertising the service again replaces the ad and restarts
// the half-lease count without adding a second cadence, and Withdraw stops
// it: no registration follows, and nothing is left queued.
func TestLookupRenewalCadence(t *testing.T) {
	r := newRig(t)
	epS := r.addNode(t, "lookup", netsim.Position{}, netsim.LAN)
	epP := r.addNode(t, "provider", netsim.Position{}, netsim.GPRS)
	server := NewLookupServer(epS, r.sim)
	provider := NewLookupClient(epP, r.sim, "lookup")

	if err := provider.Advertise(Ad{Service: "svc", TTL: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(61 * time.Second) // renewals at 5 s, 10 s, …, 60 s
	if got := server.Registrations; got != 1+12 {
		t.Fatalf("Registrations = %d after 61 s, want 13", got)
	}
	if err := provider.Advertise(Ad{Service: "svc", TTL: 4 * time.Second}); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(21 * time.Second) // one cadence, now every 2 s
	if got := server.Registrations; got != 13+1+10 {
		t.Fatalf("Registrations = %d after re-advertising, want 24", got)
	}
	provider.Withdraw("svc")
	r.sim.RunUntilIdle(0)
	if got := server.Registrations; got != 24 {
		t.Errorf("Registrations = %d after Withdraw, want 24", got)
	}
	if server.Leases() != 0 {
		t.Errorf("Leases = %d after Withdraw, want 0", server.Leases())
	}
}

func TestLookupUnreachableServerTimesOut(t *testing.T) {
	r := newRig(t)
	epC := r.addNode(t, "client", netsim.Position{}, netsim.GPRS)
	r.addNode(t, "lookup", netsim.Position{}, netsim.LAN)
	client := NewLookupClient(epC, r.sim, "lookup")
	r.net.SetUp("lookup", false)

	called := false
	var got []Ad
	client.Find(Query{Service: "svc"}, func(ads []Ad) { called = true; got = ads })
	r.sim.RunFor(10 * time.Second)
	if !called {
		t.Fatal("callback never invoked for unreachable server")
	}
	if got != nil {
		t.Errorf("got = %v, want nil for failure", got)
	}
}

func TestBeaconDiscovery(t *testing.T) {
	r := newRig(t)
	epA := r.addNode(t, "a", netsim.Position{X: 0, Y: 0}, netsim.AdHoc)
	epB := r.addNode(t, "b", netsim.Position{X: 10, Y: 0}, netsim.AdHoc)

	ba := NewBeacon(epA, r.sim, 2*time.Second)
	bb := NewBeacon(epB, r.sim, 2*time.Second)
	ba.Advertise(Ad{Service: "codec/ogg"})
	ba.Start()
	bb.Start()
	r.sim.RunFor(5 * time.Second)

	var got []Ad
	bb.Find(Query{Service: "codec/ogg"}, func(ads []Ad) { got = ads })
	if len(got) != 1 || got[0].Provider != "a" {
		t.Fatalf("Find = %+v", got)
	}
	if bb.Heard == 0 || ba.Sent == 0 {
		t.Errorf("Heard=%d Sent=%d", bb.Heard, ba.Sent)
	}
}

func TestBeaconFindsOwnServices(t *testing.T) {
	r := newRig(t)
	epA := r.addNode(t, "a", netsim.Position{}, netsim.AdHoc)
	ba := NewBeacon(epA, r.sim, time.Second)
	ba.Advertise(Ad{Service: "local/svc"})
	var got []Ad
	ba.Find(Query{Service: "local/svc"}, func(ads []Ad) { got = ads })
	if len(got) != 1 {
		t.Fatalf("own service not found: %v", got)
	}
}

func TestBeaconExpiryAfterDeparture(t *testing.T) {
	r := newRig(t)
	epA := r.addNode(t, "a", netsim.Position{X: 0, Y: 0}, netsim.AdHoc)
	epB := r.addNode(t, "b", netsim.Position{X: 10, Y: 0}, netsim.AdHoc)
	ba := NewBeacon(epA, r.sim, 2*time.Second)
	bb := NewBeacon(epB, r.sim, 2*time.Second)
	ba.Advertise(Ad{Service: "svc"})
	ba.Start()
	bb.Start()
	r.sim.RunFor(5 * time.Second)
	if bb.CacheSize() != 1 {
		t.Fatalf("CacheSize = %d", bb.CacheSize())
	}
	// a leaves radio range; its ads must expire from b's cache by TTL.
	r.net.SetPos("a", netsim.Position{X: 1000, Y: 0})
	r.sim.RunFor(30 * time.Second)
	var got []Ad
	bb.Find(Query{Service: "svc"}, func(ads []Ad) { got = ads })
	if len(got) != 0 {
		t.Errorf("departed provider still cached: %+v", got)
	}
}

func TestBeaconWithdraw(t *testing.T) {
	r := newRig(t)
	epA := r.addNode(t, "a", netsim.Position{}, netsim.AdHoc)
	ba := NewBeacon(epA, r.sim, time.Second)
	ba.Advertise(Ad{Service: "svc"})
	ba.Withdraw("svc")
	var got []Ad
	ba.Find(Query{Service: "svc"}, func(ads []Ad) { got = ads })
	if len(got) != 0 {
		t.Errorf("withdrawn service still in local set")
	}
}

// TestBeaconStop pins a lone beacon's lifecycle on its private batch of one.
// Scheduler cancellation is lazy, so the assertions are on liveness (the
// simulator goes idle, Sent stops moving), not on Pending().
func TestBeaconStop(t *testing.T) {
	r := newRig(t)
	epA := r.addNode(t, "a", netsim.Position{X: 0, Y: 0}, netsim.AdHoc)
	epB := r.addNode(t, "b", netsim.Position{X: 10, Y: 0}, netsim.AdHoc)
	ba := NewBeacon(epA, r.sim, time.Second)
	NewBeacon(epB, r.sim, time.Second)
	ba.Advertise(Ad{Service: "svc"})
	ba.Start()
	r.sim.RunFor(3 * time.Second)
	sent := ba.Sent
	ba.Stop()
	// A stopped beacon leaves no live event behind: a surviving cadence
	// timer would re-arm forever and trip the event cap.
	r.sim.RunUntilIdle(1000)
	if ba.Sent != sent {
		t.Errorf("beacons sent after Stop: %d -> %d", sent, ba.Sent)
	}

	// Stop then Start inside one interval: the restart broadcasts at once
	// and the cancelled timer never fires beside the new one.
	ba.Start()
	r.sim.RunFor(400 * time.Millisecond)
	ba.Stop()
	ba.Start()
	if ba.Sent != sent+2 {
		t.Fatalf("restart did not broadcast immediately: sent %d, want %d", ba.Sent, sent+2)
	}
	r.sim.RunFor(3*time.Second + 500*time.Millisecond) // ticks 1s, 2s, 3s after the restart
	if ba.Sent != sent+5 {
		t.Errorf("sent %d after restart, want %d (one tick per interval)", ba.Sent, sent+5)
	}
}

func TestBeaconMultiHopDoesNotPropagate(t *testing.T) {
	// Beacons are single-hop: c (out of a's range, in b's) must not learn
	// about a's services unless b re-advertises them.
	r := newRig(t)
	epA := r.addNode(t, "a", netsim.Position{X: 0, Y: 0}, netsim.AdHoc)
	epB := r.addNode(t, "b", netsim.Position{X: 25, Y: 0}, netsim.AdHoc)
	epC := r.addNode(t, "c", netsim.Position{X: 50, Y: 0}, netsim.AdHoc)
	ba := NewBeacon(epA, r.sim, time.Second)
	bb := NewBeacon(epB, r.sim, time.Second)
	bc := NewBeacon(epC, r.sim, time.Second)
	ba.Advertise(Ad{Service: "svc"})
	ba.Start()
	bb.Start()
	bc.Start()
	r.sim.RunFor(10 * time.Second)
	var atB, atC []Ad
	bb.Find(Query{Service: "svc"}, func(ads []Ad) { atB = ads })
	bc.Find(Query{Service: "svc"}, func(ads []Ad) { atC = ads })
	if len(atB) != 1 {
		t.Errorf("b should hear a: %v", atB)
	}
	if len(atC) != 0 {
		t.Errorf("c should not hear a: %v", atC)
	}
}

// registerWith hands the server one register message, as a peer would.
func registerWith(s *LookupServer, ad Ad) {
	var b wire.Buffer
	b.PutByte(msgRegister)
	ad.encode(&b)
	s.handle(ad.Provider, b.Bytes())
}

// TestLookupKeyIsNotAJoinedString: provider and service arrive from peers
// and may contain any byte. Joined with a NUL separator, these two
// registrations shared one lease.
func TestLookupKeyIsNotAJoinedString(t *testing.T) {
	sim := netsim.NewSim(1)
	s := NewLookupServer(&tapeEndpoint{addr: "lookup"}, sim)
	registerWith(s, Ad{Provider: "a", Service: "b\x00c", TTL: time.Hour})
	registerWith(s, Ad{Provider: "a\x00b", Service: "c", TTL: time.Hour})
	if s.Leases() != 2 {
		t.Fatalf("Leases = %d, want 2 distinct registrations", s.Leases())
	}
	s.table.drop("a", "b\x00c")
	if got := s.table.find(Query{}); len(got) != 1 || got[0].Provider != "a\x00b" {
		t.Fatalf("unregistering one dropped the other: %+v", got)
	}
}

// TestLookupUnqueriedServerStaysBounded: a server that is registered with
// but never queried must not keep every lease it ever granted. 10,000
// one-second leases arrive 10 ms apart (about 100 live at any time) and
// nothing ever reads the table.
func TestLookupUnqueriedServerStaysBounded(t *testing.T) {
	sim := netsim.NewSim(1)
	s := NewLookupServer(&tapeEndpoint{addr: "lookup"}, sim)
	for i := 0; i < 10000; i++ {
		registerWith(s, Ad{Provider: fmt.Sprintf("p%05d", i), Service: "svc", TTL: time.Second})
		sim.RunFor(10 * time.Millisecond)
	}
	if got := len(s.table.leases); got > 300 {
		t.Fatalf("table holds %d leases with about 100 live and no query ever made", got)
	}
	if s.Registrations != 10000 || s.Leases() < 99 || s.Leases() > 101 {
		t.Fatalf("Registrations=%d Leases=%d, want 10000 and about 100", s.Registrations, s.Leases())
	}
}

// TestSortAdsStableAndNotQuadratic: a reply is as long as its sender likes,
// so the sort must not be quadratic in it. Descending input is the insertion
// sort's worst case: ten times the ads cost it a hundred times the work, an
// n log n sort about thirteen. The ratio of two minima holds under a slow or
// busy machine where a wall-clock bound would not. The order is the stable
// one: equal (service, provider) keys keep their arrival order.
func TestSortAdsStableAndNotQuadratic(t *testing.T) {
	descending := func(n int) []Ad {
		ads := make([]Ad, n)
		for i := range ads {
			// Every key twice, told apart by TTL, so stability is visible.
			ads[i] = Ad{Service: fmt.Sprintf("s%02d", (n-1-i)/2%50), Provider: fmt.Sprintf("p%06d", (n-1-i)/100), TTL: time.Duration(i)}
		}
		return ads
	}
	ads := descending(10000)
	want := append([]Ad(nil), ads...)
	sort.SliceStable(want, func(i, j int) bool {
		a, b := want[i], want[j]
		return a.Service < b.Service || a.Service == b.Service && a.Provider < b.Provider
	})
	sortAds(ads)
	for i := range ads {
		if ads[i].Service != want[i].Service || ads[i].Provider != want[i].Provider || ads[i].TTL != want[i].TTL {
			t.Fatalf("ad %d = %+v, want %+v (the stable order)", i, ads[i], want[i])
		}
	}

	fastest := func(n int) time.Duration {
		best := time.Duration(1 << 62)
		for run := 0; run < 5; run++ {
			ads := descending(n)
			start := time.Now()
			sortAds(ads)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	small, large := fastest(1000), fastest(10000)
	if large > 40*small {
		t.Errorf("sorting 10000 ads took %v, 1000 took %v: %.0fx for 10x the input is quadratic",
			large, small, float64(large)/float64(small))
	}
}

// TestLookupReplyCountCannotPreSize: the ad count in a reply is the peer's
// word. A frame whose count is its own length over a 3-byte body cannot hold
// one ad, and is dropped before the count sizes anything.
func TestLookupReplyCountCannotPreSize(t *testing.T) {
	sim := netsim.NewSim(1)
	c := NewLookupClient(&tapeEndpoint{addr: "client"}, sim, "lookup")
	var b wire.Buffer
	b.PutByte(msgQueryReply)
	b.PutUint(1)
	b.PutUint(6) // the finished frame's length
	b.PutBytes([]byte{0, 0})
	frame := b.Bytes()
	if len(frame) != 6 {
		t.Fatalf("frame is %d bytes, the count says 6", len(frame))
	}
	if got := testing.AllocsPerRun(100, func() { c.handle("lookup", frame) }); got != 0 {
		t.Errorf("a reply claiming more ads than it has bytes for allocated %v times, want 0", got)
	}
}
