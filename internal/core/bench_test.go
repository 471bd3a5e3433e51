package core

import (
	"testing"
	"time"
	"unsafe"

	"logmob/internal/netsim"
	"logmob/internal/transport"
)

// BenchmarkKernelCallSim measures one CS round trip through the full kernel
// and simulator stack.
func BenchmarkKernelCallSim(b *testing.B) {
	s := netsim.NewSim(1)
	net := netsim.NewNetwork(s)
	sn := transport.NewSimNetwork(net)
	class := netsim.LAN
	mk := func(name string) *Host {
		net.AddNode(name, netsim.Position{}, class)
		ep, err := sn.Endpoint(name)
		if err != nil {
			b.Fatal(err)
		}
		h, err := NewHost(Config{Name: name, Endpoint: ep, Scheduler: s})
		if err != nil {
			b.Fatal(err)
		}
		return h
	}
	server := mk("server")
	client := mk("client")
	server.RegisterService("ping", func(string, [][]byte) ([][]byte, error) {
		return [][]byte{{1}}, nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		client.Call("server", "ping", [][]byte{{0}}, func([][]byte, error) { done = true })
		s.RunFor(time.Second)
		if !done {
			b.Fatal("call never completed")
		}
	}
}

// TestHostSize pins Host to Go's 256-byte allocation size class. A crowd
// allocates one Host per device (10k per metropolis op), and the next class
// up is 288 bytes: one more word costs every resident 32 bytes. The audit
// sink is a func value (one word) rather than an interface (two) for this.
func TestHostSize(t *testing.T) {
	if got := unsafe.Sizeof(Host{}); got > 256 {
		t.Errorf("Host is %d bytes, want at most 256 (its size class)", got)
	}
}
