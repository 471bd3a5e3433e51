package core

import (
	"fmt"
	"testing"
	"time"

	"logmob/internal/netsim"
	"logmob/internal/transport"
	"logmob/internal/wire"
)

// rawPeer is a kernel channel on its own node that answers nothing by
// itself: it notes the ID of each call it receives, and the test replies
// when and how it chooses.
type rawPeer struct {
	ch  transport.Endpoint
	ids []uint64
}

func (w *world) addRawPeer(t *testing.T, name string) *rawPeer {
	t.Helper()
	class := netsim.WLAN
	class.Loss = 0
	w.net.AddNode(name, netsim.Position{}, class)
	ep, err := w.sn.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	p := &rawPeer{ch: transport.NewMux(ep).Channel(transport.ChanKernel)}
	p.ch.SetHandler(func(_ string, payload []byte) {
		r := wire.NewReader(payload)
		if r.Byte() == msgCall {
			p.ids = append(p.ids, r.Uint())
		}
	})
	return p
}

// reply answers call id with one result frame.
func (p *rawPeer) reply(t *testing.T, to string, id uint64, result string) {
	t.Helper()
	var b wire.Buffer
	b.PutByte(msgCallReply)
	b.PutUint(id)
	b.PutBool(true)
	b.PutString("")
	b.PutUint(1)
	b.PutBytes([]byte(result))
	if err := p.ch.Send(to, b.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestRequestTableOutOfOrder drives the request table through every way a
// request leaves it: three calls answered 2, 3, 1; a timeout; replies that
// must change nothing (to a replied-to ID, to an expired ID, and from the
// wrong peer); an answer to the oldest of three; and a Close, which fails
// what is left in ID order. Every callback fires exactly once.
func TestRequestTableOutOfOrder(t *testing.T) {
	w := newWorld(t)
	client := w.addHost(t, "client", func(c *Config) { c.RequestTimeout = 10 * time.Second })
	peer := w.addRawPeer(t, "peer")
	forger := w.addRawPeer(t, "forger")

	var fired []string
	call := func(label string) {
		client.Call("peer", "svc", nil, func(r [][]byte, err error) {
			switch {
			case err != nil:
				fired = append(fired, label+":"+err.Error())
			case len(r) != 1:
				fired = append(fired, label+": malformed")
			default:
				fired = append(fired, label+"="+string(r[0]))
			}
		})
	}
	expect := func(when string, want ...string) {
		t.Helper()
		if fmt.Sprint(fired) != fmt.Sprint(want) {
			t.Fatalf("%s: callbacks %q, want %q", when, fired, want)
		}
		fired = nil
	}
	pending := func(when string, want int) {
		t.Helper()
		if len(client.reqs) != want {
			t.Fatalf("%s: %d requests pending, want %d", when, len(client.reqs), want)
		}
	}

	for _, label := range []string{"c1", "c2", "c3"} {
		call(label)
	}
	w.sim.RunFor(time.Second)
	if fmt.Sprint(peer.ids) != "[1 2 3]" {
		t.Fatalf("peer received call IDs %v, want [1 2 3]", peer.ids)
	}
	for _, id := range []uint64{2, 3, 1} {
		peer.reply(t, "client", id, fmt.Sprint("r", id))
	}
	w.sim.RunFor(time.Second)
	expect("answered 2, 3, 1", "c2=r2", "c3=r3", "c1=r1")
	pending("all answered", 0)

	call("c4")
	w.sim.RunFor(11 * time.Second)
	expect("c4's timeout", "c4:"+ErrTimeout.Error())
	for _, label := range []string{"c5", "c6", "c7"} {
		call(label)
	}
	w.sim.RunFor(time.Second)
	if fmt.Sprint(peer.ids) != "[1 2 3 4 5 6 7]" {
		t.Fatalf("peer received call IDs %v, want [1 ... 7]", peer.ids)
	}
	peer.reply(t, "client", 2, "late") // already answered
	peer.reply(t, "client", 4, "late") // already timed out
	forger.reply(t, "client", 6, "forged")
	w.sim.RunFor(time.Second)
	expect("stale and forged replies")
	pending("after stale and forged replies", 3)
	peer.reply(t, "client", 5, "r5")
	w.sim.RunFor(time.Second)
	expect("c5 answered", "c5=r5")

	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	closed := remoteErr("host closed").Error()
	expect("Close", "c6:"+closed, "c7:"+closed)
	w.sim.RunFor(time.Minute)
	expect("after Close")
	if client.reqs != nil {
		t.Fatalf("Close left %d requests in the table", len(client.reqs))
	}
}

// TestCallReusesRequestRecord: once a host has issued a request, later
// requests take the same parked record, timer included, so a steady-state
// round trip allocates no record and its allocation count stays where
// BenchmarkKernelCallSim reads it.
func TestCallReusesRequestRecord(t *testing.T) {
	w := newWorld(t)
	server := w.addHost(t, "server", nil)
	client := w.addHost(t, "client", nil)
	server.RegisterService("ping", func(string, [][]byte) ([][]byte, error) {
		return [][]byte{{1}}, nil
	})
	args := [][]byte{{0}}
	done := false
	roundTrip := func() {
		done = false
		client.Call("server", "ping", args, func([][]byte, error) { done = true })
		w.sim.RunFor(time.Second)
	}
	roundTrip()
	if !done || len(client.reqs) != 0 || cap(client.reqs) != 1 || client.reqs[:1][0] == nil {
		t.Fatalf("after one call: done=%v, %d pending, capacity %d; want true, 0 and 1 parked record", done, len(client.reqs), cap(client.reqs))
	}
	rec := client.reqs[:1][0]
	allocs := testing.AllocsPerRun(200, roundTrip)
	if !done || cap(client.reqs) != 1 || client.reqs[:1][0] != rec {
		t.Fatal("a steady-state call took a new request record")
	}
	if allocs > 10 && !raceEnabled {
		t.Errorf("a steady-state call round trip allocates %v times, want at most 10", allocs)
	}
}
