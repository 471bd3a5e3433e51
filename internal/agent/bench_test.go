package agent

import (
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

// TestRelayHopAllocs pins what one steady-state relay hop allocates: an agent
// bouncing between two hosts on a LAN, from one arrival to the next. An
// arrival decodes into the unit its host recycled when the agent last left
// it, with no frame copy and no heap reader, so what is left is 7
// allocations:
//   - the ack closure and its acked flag (core.handleAgent);
//   - the migrate callback (agent), the reply closure wrapping it
//     (core.SendAgent) and the request's timeout closure (core.newRequest);
//   - the timeout's scheduler event and the func value cancelling it
//     (netsim.Sim.After).
//
// The packed frames and both deliveries ride pooled buffers and recycled
// events. Past the first timeouts the scheduler's wheel still grows a bucket
// a few times per hundred hops, which AllocsPerRun's whole-number average
// drops. Cutting the closures and the timer is the next step, not this one.
func TestRelayHopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := netsim.NewSim(1)
	net := netsim.NewNetwork(s)
	sn := transport.NewSimNetwork(net)
	var plats []*Platform
	for _, name := range []string{"a", "b"} {
		net.AddNode(name, netsim.Position{}, netsim.LAN)
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
	// "~a" and "~b" sort after every platform key, so they are the last two
	// blobs: at an even hop count (on a) select b, at an odd one select a.
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
	if _, err := plats[0].Spawn("bouncer", prog, map[string][]byte{"~a": []byte("a"), "~b": []byte("b")}, "main"); err != nil {
		t.Fatal(err)
	}
	arrivals := func() int64 { return plats[0].Stats().Arrived + plats[1].Stats().Arrived }
	hop := func() {
		for next := arrivals() + 1; arrivals() < next; {
			if !s.Step() {
				t.Fatal("the bouncing agent stopped")
			}
		}
	}
	for s.Now() < 15*time.Second { // past the first 10 s request timeouts
		hop()
	}
	if got := testing.AllocsPerRun(1000, hop); got != 7 {
		t.Errorf("a relay hop allocates %v times, want 7", got)
	}
}

// newBenchPlatform attaches an agent runtime with a fixed seed.
func newBenchPlatform(h *core.Host) *Platform {
	return NewPlatform(h, Env{Seed: 1})
}
