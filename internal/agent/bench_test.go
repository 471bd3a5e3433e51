package agent

import (
	"encoding/binary"
	"testing"
	"time"

	"logmob/internal/core"
	"logmob/internal/netsim"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

// BenchmarkAgentHop measures one full agent migration (snapshot, transfer,
// verify, restore, resume) through the kernel and simulator.
func BenchmarkAgentHop(b *testing.B) {
	s := netsim.NewSim(1)
	net := netsim.NewNetwork(s)
	sn := transport.NewSimNetwork(net)
	mkPlat := func(name string) *core.Host {
		net.AddNode(name, netsim.Position{}, netsim.LAN)
		ep, err := sn.Endpoint(name)
		if err != nil {
			b.Fatal(err)
		}
		h, err := core.NewHost(core.Config{
			Name: name, Endpoint: ep, Scheduler: s,
			Policy: security.Policy{AllowUnsigned: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		return h
	}
	ha := mkPlat("a")
	hb := mkPlat("b")
	platA := newBenchPlatform(ha)
	newBenchPlatform(hb)

	prog := vm.MustAssemble(`
.entry main
main:
	host a_select_dest
	jz done
	host a_migrate
	pop
done:
	halt
`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platA.Spawn("hopper", prog,
			map[string][]byte{"dest": []byte("b")}, "main"); err != nil {
			b.Fatal(err)
		}
		s.RunFor(time.Second)
	}
}

// relayPair is two hosts, named names or else node-a and node-b, in range of
// each other on class, each with an agent platform, plus a step function that
// runs the simulator to the next agent arrival on either. The names are
// longer than one byte on purpose: Go converts a one-byte []byte to a string
// without allocating, so one-byte names would hide a conversion on the hop
// path.
func relayPair(t *testing.T, class netsim.LinkClass, names ...string) (plats []*Platform, hop func()) {
	t.Helper()
	if names == nil {
		names = []string{"node-a", "node-b"}
	}
	s := netsim.NewSim(1)
	net := netsim.NewNetwork(s)
	sn := transport.NewSimNetwork(net)
	for i, name := range names {
		net.AddNode(name, netsim.Position{X: float64(10 * i)}, class)
		ep, err := sn.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := core.NewHost(core.Config{
			Name: name, Endpoint: ep, Scheduler: s,
			Policy: security.Policy{AllowUnsigned: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		plats = append(plats, NewPlatform(h, Env{Seed: 1, MaxHops: 1 << 40}))
	}
	atA, atB := countArrivals(plats[0]), countArrivals(plats[1])
	arrivals := func() int64 { return *atA + *atB }
	hop = func() {
		for next := arrivals() + 1; arrivals() < next; {
			if !s.Step() {
				t.Fatal("the bouncing agent stopped")
			}
		}
	}
	return plats, hop
}

// steadyHopAllocs warms a bouncing agent up past the first 10 s request
// timeouts, so the scheduler's free list holds the timer events those
// superseded and the wheel's spare buckets cover the 10 s horizon, then
// returns what one steady-state hop allocates.
func steadyHopAllocs(t *testing.T, plats []*Platform, hop func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for plats[0].Host().Scheduler().Now() < 15*time.Second {
		hop()
	}
	return testing.AllocsPerRun(1000, hop)
}

// pinHopAllocs pins a steady-state hop at zero allocations.
func pinHopAllocs(t *testing.T, plats []*Platform, hop func()) {
	t.Helper()
	if got := steadyHopAllocs(t, plats, hop); got != 0 {
		t.Errorf("a relay hop allocates %v times, want 0", got)
	}
}

// TestRelayHopAllocs pins what one steady-state relay hop allocates: an agent
// bouncing between two hosts on a LAN, from one arrival to the next,
// selecting each hop from a data blob. An arrival decodes into the unit its
// host recycled when the agent last left it; the ack is the runtime's
// verdict, with no closure; the request is a recycled record whose timer
// re-arms on a recycled event; the migration callback is bound once per
// pooled activation; the selected hop is interned. So it allocates nothing.
func TestRelayHopAllocs(t *testing.T) {
	plats, hop := relayPair(t, netsim.LAN)
	// "~a" and "~b" sort after every platform key, so they are the last two
	// blobs: at an even hop count (on node-a) select node-b, at an odd one
	// select node-a.
	prog := vm.MustAssemble(`
.entry main
main:
loop:
	host blob_count
	push 1
	sub
	host a_hops
	push 2
	mod
	sub
	host a_select_blob
	pop
	host a_migrate
	pop
	jmp loop
`)
	if _, err := plats[0].Spawn("bouncer", prog, map[string][]byte{"~a": []byte("node-a"), "~b": []byte("node-b")}, "main"); err != nil {
		t.Fatal(err)
	}
	pinHopAllocs(t, plats, hop)
}

// TestCourierHopAllocs pins T3's own relay hop at zero: the store-carry-
// forward courier on an ad-hoc link, choosing its next hop with
// a_select_toward_dest. Its destination is on neither host, so it bounces
// between the two for good, each time reading the neighbor set (borrowed,
// not copied) and comparing its destination and previous host as bytes. The
// link is lossless: a lost ack would duplicate the agent (transfer is
// at-least-once), and a growing crowd of agents is not a steady state. The
// second pair's names differ in length, as T3's do, so each departure's
// _prev replaces a value of another length.
func TestCourierHopAllocs(t *testing.T) {
	for _, names := range [][]string{{"node-a", "node-b"}, {"node-a", "relay-node-b"}} {
		t.Run(names[1], func(t *testing.T) {
			class := netsim.AdHoc
			class.Loss = 0
			plats, hop := relayPair(t, class, names...)
			data := NewCourierData("node-z", "disaster", make([]byte, 256))
			if _, err := plats[0].Spawn("courier", CourierProgram, data, "main"); err != nil {
				t.Fatal(err)
			}
			pinHopAllocs(t, plats, hop)
		})
	}
}

// TestRefusedHopAllocs pins T3's most frequent arrival: a courier past its
// hop budget keeps retrying a neighbor that drops it. The refused arrival
// decodes into the unit its host recycled from the previous refusal, the
// sender reads the refusal's reason from the intern table, and the error the
// migration callback receives is the one value core memoizes for that
// reason. So a refused hop allocates nothing, like a relay hop.
func TestRefusedHopAllocs(t *testing.T) {
	class := netsim.AdHoc
	class.Loss = 0
	plats, _ := relayPair(t, class)
	at := &admitCounter{AgentRuntime: plats[1]}
	plats[1].Host().SetAgentRuntime(at)
	s := plats[1].Host().Scheduler().(*netsim.Sim)
	hop := func() {
		for next := at.asked + 1; at.asked < next; {
			if !s.Step() {
				t.Fatal("the refused courier stopped retrying")
			}
		}
	}
	data := NewCourierData("node-z", "disaster", make([]byte, 256))
	data[keyHops] = binary.BigEndian.AppendUint64(nil, uint64(plats[1].env.MaxHops))
	if _, err := plats[0].Spawn("courier", CourierProgram, data, "main"); err != nil {
		t.Fatal(err)
	}
	if got := steadyHopAllocs(t, plats, hop); got != 0 {
		t.Errorf("a refused hop allocates %v times, want 0", got)
	}
	if at.asked < 1000 || at.admitted != 0 {
		t.Errorf("node-b admitted %d of %d arrivals, want none", at.admitted, at.asked)
	}
}

// newBenchPlatform attaches an agent runtime with a fixed seed.
func newBenchPlatform(h *core.Host) *Platform {
	return NewPlatform(h, Env{Seed: 1})
}
