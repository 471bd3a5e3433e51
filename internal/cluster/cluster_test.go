package cluster

import (
	"fmt"
	"testing"
	"time"

	"logmob/internal/netsim"
	"logmob/internal/transport"
)

func testConfig(seed string) Config {
	return Config{
		Seeds:      []string{seed},
		ProbeEvery: time.Second,
		DeadAfter:  3,
		Retry:      transport.ReliableConfig{Budget: 2, Timeout: 500 * time.Millisecond},
	}
}

// tally counts, per node address, the OnJoin and OnLeave calls it observed.
type tally struct{ joins, leaves map[string]int }

// simCluster builds n cluster nodes over the deterministic simulator, all in
// radio range, every node seeded with node 0's address ("a").
func simCluster(t *testing.T, n int) (*netsim.Sim, []*Node, []*transport.Mux, *tally) {
	t.Helper()
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	class := netsim.LAN
	class.Loss = 0
	snet := transport.NewSimNetwork(net)
	nodes := make([]*Node, n)
	muxes := make([]*transport.Mux, n)
	seen := &tally{joins: make(map[string]int), leaves: make(map[string]int)}
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a' + i))
		net.AddNode(names[i], netsim.Position{}, class)
	}
	for i, name := range names {
		ep, err := snet.Endpoint(name)
		if err != nil {
			t.Fatalf("endpoint %s: %v", name, err)
		}
		muxes[i] = transport.NewMux(ep)
		cfg := testConfig(names[0])
		cfg.OnJoin = func(string) { seen.joins[name]++ }
		cfg.OnLeave = func(string) { seen.leaves[name]++ }
		nodes[i] = Join(muxes[i].Channel(transport.ChanCluster), sim, cfg)
	}
	return sim, nodes, muxes, seen
}

func wantPeers(t *testing.T, n *Node, want ...string) {
	t.Helper()
	got := n.Peers()
	ok := len(got) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = got[i] == want[i]
	}
	if !ok {
		t.Fatalf("node %s peers = %v, want %v", n.Addr(), got, want)
	}
}

// TestBootstrapOverSimnet proves seed-node join and peer exchange: every
// node learns every other through the single seed, in virtual time.
func TestBootstrapOverSimnet(t *testing.T) {
	sim, nodes, _, seen := simCluster(t, 4)
	sim.RunFor(5 * time.Second)
	wantPeers(t, nodes[0], "b", "c", "d")
	wantPeers(t, nodes[1], "a", "c", "d")
	wantPeers(t, nodes[2], "a", "b", "d")
	wantPeers(t, nodes[3], "a", "b", "c")
	if n := seen.joins["a"]; n != 3 {
		t.Errorf("seed joins = %d, want 3", n)
	}
}

// TestEvictionAndRejoinOverSimnet silences a node until it is evicted, then
// restarts its membership on the same endpoint and verifies it heals back
// into the mesh through its seed.
func TestEvictionAndRejoinOverSimnet(t *testing.T) {
	sim, nodes, muxes, seen := simCluster(t, 3)
	sim.RunFor(5 * time.Second)
	wantPeers(t, nodes[2], "a", "b")

	// Silence node c: close its membership so it stops answering probes.
	nodes[2].Close()
	sim.RunFor(30 * time.Second)
	wantPeers(t, nodes[0], "b")
	wantPeers(t, nodes[1], "a")
	if n := seen.leaves["a"]; n != 1 {
		t.Errorf("seed evictions = %d, want 1", n)
	}

	// Restart membership on c's endpoint, as a restarted daemon would.
	restarted := Join(muxes[2].Channel(transport.ChanCluster), sim, testConfig("a"))
	sim.RunFor(5 * time.Second)
	wantPeers(t, nodes[0], "b", "c")
	wantPeers(t, nodes[1], "a", "c")
	wantPeers(t, restarted, "a", "b")
}

// TestSeedReconnect proves the other healing direction: when the *seed*
// dies and comes back, the survivors' periodic re-hello to their configured
// seeds pulls it back into their peer sets.
func TestSeedReconnect(t *testing.T) {
	sim, nodes, muxes, _ := simCluster(t, 3)
	sim.RunFor(5 * time.Second)

	nodes[0].Close() // the seed goes dark
	sim.RunFor(30 * time.Second)
	wantPeers(t, nodes[1], "c")
	wantPeers(t, nodes[2], "b")

	reseeded := Join(muxes[0].Channel(transport.ChanCluster), sim, testConfig("a"))
	sim.RunFor(5 * time.Second)
	wantPeers(t, reseeded, "b", "c")
	wantPeers(t, nodes[1], "a", "c")
	wantPeers(t, nodes[2], "a", "b")
}

// tcpCluster builds a live cluster node over a real loopback TCP endpoint.
func tcpCluster(t *testing.T, listen, seed string) (*transport.TCPEndpoint, *Node) {
	t.Helper()
	ep, err := transport.ListenTCP(listen)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	mux := transport.NewMux(ep)
	n := Join(mux.Channel(transport.ChanCluster), transport.NewWallScheduler(), Config{
		Seeds:      []string{seed},
		ProbeEvery: 40 * time.Millisecond,
		DeadAfter:  3,
		Retry:      transport.ReliableConfig{Budget: 2, Timeout: 60 * time.Millisecond},
	})
	t.Cleanup(func() { n.Close(); ep.Close() })
	return ep, n
}

func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBootstrapJoinHealOverTCP is the real-wire integration test: three
// cluster nodes on loopback TCP bootstrap through one seed, survive a
// member being killed (eviction) and restarted on the same address
// (re-discovery by every survivor).
func TestBootstrapJoinHealOverTCP(t *testing.T) {
	epA, a := tcpCluster(t, "127.0.0.1:0", "")
	seed := epA.Addr()
	_, b := tcpCluster(t, "127.0.0.1:0", seed)
	epC, c := tcpCluster(t, "127.0.0.1:0", seed)
	cAddr := epC.Addr()

	sees := func(n *Node, addrs ...string) func() bool {
		return func() bool {
			got := n.Peers()
			set := make(map[string]bool, len(got))
			for _, g := range got {
				set[g] = true
			}
			for _, want := range addrs {
				if !set[want] {
					return false
				}
			}
			return len(got) == len(addrs)
		}
	}
	eventually(t, 5*time.Second, "a to see b,c", sees(a, b.Addr(), cAddr))
	eventually(t, 5*time.Second, "b to see a,c", sees(b, seed, cAddr))
	eventually(t, 5*time.Second, "c to see a,b", sees(c, seed, b.Addr()))

	// Kill c: membership and endpoint down, as a crashed daemon.
	c.Close()
	epC.Close()
	eventually(t, 10*time.Second, "a to evict c", sees(a, b.Addr()))
	eventually(t, 10*time.Second, "b to evict c", sees(b, seed))

	// Restart c on the same address; survivors must re-discover it.
	_, c2 := tcpCluster(t, cAddr, seed)
	eventually(t, 10*time.Second, "c2 to rejoin", sees(c2, seed, b.Addr()))
	eventually(t, 10*time.Second, "a to re-learn c", sees(a, b.Addr(), cAddr))
	eventually(t, 10*time.Second, "b to re-learn c", sees(b, seed, cAddr))
}

// TestHelloListingMadeUpAddresses feeds a node one hello that lists 1,000
// addresses nobody answers from. None of them joins the peer set, the node
// hellos only maxHellosPerFrame of them, and with every retry and probe that
// follows it sends fewer bytes than the frame it read.
func TestHelloListingMadeUpAddresses(t *testing.T) {
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	net.AddNode("self", netsim.Position{}, netsim.LAN)
	ep, err := transport.NewSimNetwork(net).Endpoint("self")
	if err != nil {
		t.Fatal(err)
	}
	raw := &sendCounter{Endpoint: ep}
	n := Join(raw, sim, Config{})
	defer n.Close()
	list := make([]string, 1000)
	for i := range list {
		list[i] = fmt.Sprintf("made-up-%04d", i)
	}
	hello := clusterFrame(kindHello, list...)
	n.dispatch("liar", hello)
	if got := n.Peers(); len(got) != 1 || got[0] != "liar" {
		t.Errorf("the hello left %d peers, want only its sender", len(got))
	}
	if raw.sent > maxHellosPerFrame+1 {
		t.Errorf("the hello made the node send %d frames, want at most %d", raw.sent, maxHellosPerFrame+1)
	}
	sim.RunFor(time.Minute) // retries and probes, until the liar is evicted
	if raw.bytes >= len(hello) {
		t.Errorf("one %d-byte hello made the node send %d bytes in %d frames", len(hello), raw.bytes, raw.sent)
	}
}

// tickCounter counts the firings of every timer made through it.
type tickCounter struct {
	transport.Scheduler
	fired *int
}

func (c tickCounter) NewTimer(fn func()) transport.Timer {
	return c.Scheduler.NewTimer(func() { *c.fired++; fn() })
}

// TestProbeTickAllocs: a node's probe is one timer that tick re-arms, so a
// warm tick of a lone node (no peers, no seeds, nothing to send) allocates
// nothing, and a closed node never ticks again.
func TestProbeTickAllocs(t *testing.T) {
	const probeEvery = time.Second
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	net.AddNode("self", netsim.Position{}, netsim.LAN)
	ep, err := transport.NewSimNetwork(net).Endpoint("self")
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	n := Join(ep, tickCounter{sim, &ticks}, Config{ProbeEvery: probeEvery})
	sim.RunFor(10 * probeEvery)
	if ticks != 10 {
		t.Errorf("%d ticks in 10 probe intervals, want 10", ticks)
	}
	if allocs := testing.AllocsPerRun(100, func() { sim.RunFor(probeEvery) }); allocs != 0 {
		t.Errorf("a warm probe tick allocates %v, want 0", allocs)
	}
	n.Close()
	ticks = 0
	sim.RunFor(100 * probeEvery)
	if ticks != 0 || sim.Pending() != 0 {
		t.Errorf("a closed node ticked %d times in 100 probe intervals, %d events left pending", ticks, sim.Pending())
	}
}
