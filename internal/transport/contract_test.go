package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// contractEnv is what a factory builds for one row of the Endpoint
// contract: a world of exactly two endpoints that reach each other, and
// what the implementation promises beyond the common rows.
type contractEnv struct {
	a, b Endpoint
	// settle lets deliveries happen until done holds, or until nothing more
	// can happen; a nil done lets what is in flight land.
	settle func(done func() bool)
	// ordered is set where messages to one peer arrive in send order.
	ordered bool
	// unknown is an address no endpoint answers at.
	unknown string
	// drops, where set, counts the sends an endpoint gave up on: an unknown
	// peer may be a counted drop instead of an error.
	drops func(e Endpoint) int64
	// closedErr is what a Send after Close wraps; nil accepts any error.
	closedErr error
	// counters, where the implementation keeps them, lists the counts that
	// must be equal once a has sent contractMsgs unicasts and one broadcast
	// to a quiet b.
	counters func(a, b Endpoint) []tally
	// goroutines is the count before the factory ran, set by the runner.
	goroutines int
}

// tally is one pair of counts that must be equal.
type tally struct {
	name      string
	got, want int64
}

// contractMsgs is how many unicasts a row sends.
const contractMsgs = 4

// contractPayloads returns contractMsgs payloads, each larger than the next:
// over the simulator a larger message takes longer, so order is not kept.
func contractPayloads() [][]byte {
	out := make([][]byte, contractMsgs)
	for i := range out {
		out[i] = bytes.Repeat([]byte{byte('a' + i)}, 100*(contractMsgs-i))
	}
	return out
}

// runEndpointContract runs every row against endpoints built by factory,
// each row on a fresh pair.
func runEndpointContract(t *testing.T, factory func(t *testing.T) *contractEnv) {
	rows := []struct {
		name string
		run  func(t *testing.T, env *contractEnv)
	}{
		{"send-receive", rowSendReceive},
		{"neighbors", rowNeighbors},
		{"broadcast", rowBroadcast},
		{"unknown-peer", rowUnknownPeer},
		{"close", rowClose},
		{"borrowed-payload", rowBorrowedPayload},
		{"counters", rowCounters},
		{"goroutines", rowGoroutines},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			n := runtime.NumGoroutine()
			env := factory(t)
			env.goroutines = n
			row.run(t, env)
		})
	}
}

func TestEndpointContract(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		runEndpointContract(t, func(t *testing.T) *contractEnv {
			sim, a, b := newSimPair(t)
			return &contractEnv{
				a: a, b: b,
				settle:  func(func() bool) { sim.RunUntilIdle(0) },
				unknown: "ghost",
				counters: func(a, b Endpoint) []tally {
					nw := a.(*simEndpoint).net
					ua, ub := nw.UsageOf(a.Addr()), nw.UsageOf(b.Addr())
					return []tally{
						{"a msgs sent, b msgs received", ua.MsgsSent, ub.MsgsRecv},
						{"a bytes sent, b bytes received", ua.BytesSent, ub.BytesRecv},
						{"a msgs sent, messages made", ua.MsgsSent, contractMsgs + 1},
					}
				},
			}
		})
	})
	t.Run("tcp", func(t *testing.T) {
		runEndpointContract(t, func(t *testing.T) *contractEnv {
			return &contractEnv{
				a: newTCP(t), b: newTCP(t),
				settle:    settleWall,
				ordered:   true,
				unknown:   deadAddr(t),
				closedErr: ErrClosed,
				counters: func(a, b Endpoint) []tally {
					ua, ub := a.(*TCPEndpoint).Usage(), b.(*TCPEndpoint).Usage()
					return []tally{
						{"a msgs sent, b msgs received", ua.MsgsSent, ub.MsgsRecv},
						{"a bytes sent, b bytes received", ua.BytesSent, ub.BytesRecv},
						{"a msgs sent, messages made and the hello", ua.MsgsSent, contractMsgs + 2},
					}
				},
			}
		})
	})
	t.Run("reliable", func(t *testing.T) {
		runEndpointContract(t, func(t *testing.T) *contractEnv {
			sim, _, a, b := reliablePair(t, 1, ReliableConfig{})
			return &contractEnv{
				a: a, b: b,
				settle:    func(func() bool) { sim.RunUntilIdle(0) },
				unknown:   "ghost",
				drops:     func(e Endpoint) int64 { return e.(*Reliable).Stats().GaveUp },
				closedErr: ErrClosed,
				counters: func(a, b Endpoint) []tally {
					sa, sb := a.(*Reliable).Stats(), b.(*Reliable).Stats()
					return []tally{
						{"a sent, b acks sent", sa.Sent, sb.AcksSent},
						{"a acked, b acks sent", sa.Acked, sb.AcksSent},
						{"a sent, unicasts made", sa.Sent, contractMsgs},
					}
				},
			}
		})
	})
	t.Run("mux", func(t *testing.T) {
		runEndpointContract(t, func(t *testing.T) *contractEnv {
			sim, a, b := newSimPair(t)
			return &contractEnv{
				a:         NewMux(a).Channel(ChanKernel),
				b:         NewMux(b).Channel(ChanKernel),
				settle:    func(func() bool) { sim.RunUntilIdle(0) },
				unknown:   "ghost",
				closedErr: ErrClosed,
			}
		})
	})
}

// settleWall polls done for up to two seconds; a nil done waits a moment
// for frames in flight.
func settleWall(done func() bool) {
	if done == nil {
		time.Sleep(20 * time.Millisecond)
		return
	}
	for deadline := time.Now().Add(2 * time.Second); !done() && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
}

// deadAddr returns a loopback address nothing listens at.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// delivery is one message a recorder saw, copied.
type delivery struct{ from, payload string }

func (d delivery) String() string {
	return fmt.Sprintf("%s:%.6q(%d B)", d.from, d.payload, len(d.payload))
}

// recorder collects deliveries; TCP handlers run on read-loop goroutines.
type recorder struct {
	mu  sync.Mutex
	got []delivery
}

func (r *recorder) add(from string, payload []byte) {
	r.mu.Lock()
	r.got = append(r.got, delivery{from, string(payload)})
	r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.got)
}

// expect checks that exactly want arrived, all from from, in order if
// ordered is set.
func (r *recorder) expect(t *testing.T, from string, want [][]byte, ordered bool) {
	t.Helper()
	r.mu.Lock()
	got := slices.Clone(r.got)
	r.mu.Unlock()
	exp := make([]delivery, len(want))
	for i, p := range want {
		exp[i] = delivery{from, string(p)}
	}
	if !ordered {
		cmp := func(x, y delivery) int { return bytes.Compare([]byte(x.payload), []byte(y.payload)) }
		slices.SortFunc(got, cmp)
		slices.SortFunc(exp, cmp)
	}
	if !slices.Equal(got, exp) {
		t.Errorf("got %d deliveries %v, want %d %v", len(got), got, len(exp), exp)
	}
}

// sendAll sends each payload from a to b.
func sendAll(t *testing.T, env *contractEnv, payloads ...[]byte) {
	t.Helper()
	for _, p := range payloads {
		if err := env.a.Send(env.b.Addr(), p); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
}

// rowSendReceive: every unicast arrives once, from its sender, in order where
// promised, and a handler can reply to it from inside the handler.
func rowSendReceive(t *testing.T, env *contractEnv) {
	atA, atB := &recorder{}, &recorder{}
	env.a.SetHandler(atA.add)
	env.b.SetHandler(func(from string, p []byte) {
		atB.add(from, p)
		if err := env.b.Send(from, append([]byte("re:"), p...)); err != nil {
			t.Errorf("reply from the handler: %v", err)
		}
	})
	want := contractPayloads()
	sendAll(t, env, want...)
	env.settle(func() bool { return atA.len() == len(want) })
	atB.expect(t, env.a.Addr(), want, env.ordered)
	replies := make([][]byte, len(want))
	for i, p := range want {
		replies[i] = append([]byte("re:"), p...)
	}
	atA.expect(t, env.b.Addr(), replies, env.ordered)
}

// rowNeighbors: once the two have exchanged messages, each lists the other,
// once.
func rowNeighbors(t *testing.T, env *contractEnv) {
	atB := &recorder{}
	env.a.SetHandler(func(string, []byte) {})
	env.b.SetHandler(atB.add)
	sendAll(t, env, contractPayloads()...)
	env.settle(func() bool { return atB.len() == contractMsgs })
	for _, e := range []struct{ self, peer Endpoint }{{env.a, env.b}, {env.b, env.a}} {
		if got := slices.Clone(e.self.Neighbors()); !slices.Equal(got, []string{e.peer.Addr()}) {
			t.Errorf("%s lists neighbors %q, want %q once", e.self.Addr(), got, e.peer.Addr())
		}
	}
}

// rowBroadcast: a broadcast targets the one peer and arrives there once.
func rowBroadcast(t *testing.T, env *contractEnv) {
	atB := &recorder{}
	env.a.SetHandler(func(string, []byte) {})
	env.b.SetHandler(atB.add)
	// A TCP endpoint's peers are the ones it is connected to.
	sendAll(t, env, []byte("hello"))
	env.settle(func() bool { return atB.len() == 1 })
	if n := env.a.Broadcast([]byte("beacon")); n != 1 {
		t.Errorf("Broadcast targeted %d peers, want 1", n)
	}
	env.settle(func() bool { return atB.len() == 2 })
	atB.expect(t, env.a.Addr(), [][]byte{[]byte("hello"), []byte("beacon")}, env.ordered)
}

// rowUnknownPeer: a send to an address nobody answers at fails, or is a drop
// the endpoint counts.
func rowUnknownPeer(t *testing.T, env *contractEnv) {
	env.a.SetHandler(func(string, []byte) {})
	env.b.SetHandler(func(from string, _ []byte) { t.Errorf("b received a message from %s", from) })
	var before int64
	if env.drops != nil {
		before = env.drops(env.a)
	}
	if err := env.a.Send(env.unknown, []byte("x")); err != nil {
		return
	}
	if env.drops == nil {
		t.Fatal("Send to an unknown peer returned nil, and the endpoint counts no drops")
	}
	env.settle(nil)
	if got := env.drops(env.a) - before; got != 1 {
		t.Errorf("a send to an unknown peer returned nil and counted %d drops, want 1", got)
	}
}

// rowClose: Close is idempotent; once it returns, the endpoint's Send fails,
// its Broadcast targets nobody, and nothing is delivered to it or from it.
func rowClose(t *testing.T, env *contractEnv) {
	var closed atomic.Bool
	var late atomic.Int64
	atB := &recorder{}
	env.a.SetHandler(func(string, []byte) {
		if closed.Load() {
			late.Add(1)
		}
	})
	env.b.SetHandler(func(from string, p []byte) {
		if closed.Load() {
			late.Add(1)
		}
		atB.add(from, p)
	})
	sendAll(t, env, []byte("before"))
	env.settle(func() bool { return atB.len() == 1 })
	for i := 0; i < 2; i++ {
		if err := env.b.Close(); err != nil {
			t.Errorf("Close #%d: %v", i+1, err)
		}
	}
	closed.Store(true)
	err := env.b.Send(env.a.Addr(), []byte("after"))
	switch {
	case err == nil:
		t.Error("Send after Close returned nil")
	case env.closedErr != nil && !errors.Is(err, env.closedErr):
		t.Errorf("Send after Close = %v, want %v", err, env.closedErr)
	}
	if n := env.b.Broadcast([]byte("after")); n != 0 {
		t.Errorf("Broadcast after Close targeted %d peers, want 0", n)
	}
	_ = env.a.Send(env.b.Addr(), []byte("after")) // may fail; must not arrive
	env.settle(nil)
	if n := late.Load(); n != 0 {
		t.Errorf("%d deliveries after Close returned", n)
	}
}

// scribble overwrites p, as the owner of a lent buffer may once it is
// returned.
func scribble(p []byte) {
	for i := range p {
		p[i] = 0xEE
	}
}

// rowBorrowedPayload: a payload is the caller's again when Send returns, and
// the endpoint's again when the handler returns. The sender refills one
// buffer for every message, each handler scribbles its payload as it
// returns, and the receiver echoes the lent payload itself; every message
// and echo must still arrive intact. Unicast only: the receivers of one
// netsim broadcast share a copy.
func rowBorrowedPayload(t *testing.T, env *contractEnv) {
	atA, atB := &recorder{}, &recorder{}
	env.a.SetHandler(func(from string, p []byte) {
		atA.add(from, p)
		scribble(p)
	})
	env.b.SetHandler(func(from string, p []byte) {
		atB.add(from, p)
		if err := env.b.Send(from, p); err != nil {
			t.Errorf("echo: %v", err)
		}
		scribble(p)
	})
	want := contractPayloads()
	var buf []byte
	for _, p := range want {
		buf = append(buf[:0], p...)
		if err := env.a.Send(env.b.Addr(), buf); err != nil {
			t.Fatalf("Send: %v", err)
		}
		scribble(buf)
	}
	env.settle(func() bool { return atA.len() == len(want) })
	atB.expect(t, env.a.Addr(), want, env.ordered)
	atA.expect(t, env.b.Addr(), want, env.ordered)
}

// rowCounters: once a has sent contractMsgs unicasts and a broadcast to b,
// and b has received them all, the two ends' counters agree.
func rowCounters(t *testing.T, env *contractEnv) {
	if env.counters == nil {
		t.Skip("the implementation keeps no counters")
	}
	atB := &recorder{}
	env.a.SetHandler(func(string, []byte) {})
	env.b.SetHandler(atB.add)
	want := contractPayloads()
	sendAll(t, env, want...)
	env.a.Broadcast([]byte("beacon"))
	want = append(want, []byte("beacon"))
	env.settle(func() bool { return atB.len() == len(want) })
	atB.expect(t, env.a.Addr(), want, env.ordered)
	for _, c := range env.counters(env.a, env.b) {
		if c.got != c.want {
			t.Errorf("%s: %d != %d", c.name, c.got, c.want)
		}
	}
}

// rowGoroutines: after messages both ways and Close on both ends, no
// goroutine the endpoints started is left.
func rowGoroutines(t *testing.T, env *contractEnv) {
	atA, atB := &recorder{}, &recorder{}
	env.a.SetHandler(atA.add)
	env.b.SetHandler(atB.add)
	sendAll(t, env, []byte("ping"))
	env.settle(func() bool { return atB.len() == 1 })
	if err := env.b.Send(env.a.Addr(), []byte("pong")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	env.settle(func() bool { return atA.len() == 1 })
	env.a.Close()
	env.b.Close()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > env.goroutines && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(2 * time.Millisecond)
	}
	if n > env.goroutines {
		t.Errorf("%d goroutines after Close, %d before the endpoints existed", n, env.goroutines)
	}
}
