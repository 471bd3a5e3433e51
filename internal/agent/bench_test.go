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

// newBenchPlatform attaches an agent runtime with a fixed seed.
func newBenchPlatform(h *core.Host) *Platform {
	return NewPlatform(h, Env{Seed: 1})
}
