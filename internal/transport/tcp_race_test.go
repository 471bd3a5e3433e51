package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logmob/internal/wire"
)

// newTCP is a test helper that listens on an ephemeral loopback port.
func newTCP(t *testing.T) *TCPEndpoint {
	t.Helper()
	e, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// rawHello writes a hello frame claiming addr on conn, as a dialing
// endpoint would.
func rawHello(t *testing.T, conn net.Conn, addr string) {
	t.Helper()
	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	b.PutString(addr)
	b.PutBytes(nil)
	if _, err := wire.WriteFrame(conn, b.Bytes()); err != nil {
		t.Fatalf("hello frame: %v", err)
	}
}

// closeWithin asserts Close returns before the deadline.
func closeWithin(t *testing.T, e *TCPEndpoint, d time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- e.Close() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("Close did not return within %v", d)
	}
}

// TestTCPCloseWithSilentInboundConn is the regression test for the Close
// hang: a connection that was accepted but never sent its hello frame used
// to be invisible to Close, leaving its read loop blocked forever and
// wg.Wait() with it.
func TestTCPCloseWithSilentInboundConn(t *testing.T) {
	e := newTCP(t)
	conn, err := net.Dial("tcp", e.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Give the endpoint time to accept and park a reader on the silent conn.
	time.Sleep(50 * time.Millisecond)
	closeWithin(t, e, 2*time.Second)
}

// TestTCPCloseWithHalfHelloConn hangs a reader mid-frame: the length prefix
// arrives but the body never does. Close must still terminate it.
func TestTCPCloseWithHalfHelloConn(t *testing.T) {
	e := newTCP(t)
	conn, err := net.Dial("tcp", e.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{200}); err != nil { // frame length, no body
		t.Fatalf("write: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	closeWithin(t, e, 2*time.Second)
}

// TestTCPMalformedHello feeds an endpoint frames that parse but carry an
// empty sender, then outright garbage. The endpoint must skip or drop them
// without adopting a peer, keep serving, and still close promptly.
func TestTCPMalformedHello(t *testing.T) {
	e := newTCP(t)
	var delivered atomic.Int64
	e.SetHandler(func(from string, payload []byte) { delivered.Add(1) })

	// A frame with an empty sender address must be skipped, not adopted.
	conn, err := net.Dial("tcp", e.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	b := wire.GetBuffer()
	b.PutString("")
	b.PutBytes([]byte("payload"))
	_, err = wire.WriteFrame(conn, b.Bytes())
	wire.PutBuffer(b)
	if err != nil {
		t.Fatalf("frame: %v", err)
	}

	// Garbage that fails frame decoding must kill only its own connection.
	garbage, err := net.Dial("tcp", e.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer garbage.Close()
	if _, err := garbage.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x01}); err != nil {
		t.Fatalf("write: %v", err)
	}

	time.Sleep(100 * time.Millisecond)
	if n := delivered.Load(); n != 0 {
		t.Errorf("delivered %d messages from malformed frames", n)
	}
	if nbrs := e.Neighbors(); len(nbrs) != 0 {
		t.Errorf("malformed hello adopted peers: %v", nbrs)
	}
	closeWithin(t, e, 2*time.Second)
}

// stallWriter connects a raw peer to e that sends its hello as "stall-peer"
// and then never reads, and saturates e's connection to it from a writer
// goroutine until that goroutine is blocked in a Write. It returns the raw
// peer's connection.
func stallWriter(t *testing.T, e *TCPEndpoint) net.Conn {
	t.Helper()
	stall, err := net.Dial("tcp", e.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { stall.Close() })
	if tcp, ok := stall.(*net.TCPConn); ok {
		tcp.SetReadBuffer(4096) // shrink the window so the writer blocks fast
	}
	rawHello(t, stall, "stall-peer")

	// Wait until the endpoint has adopted it.
	deadline := time.Now().Add(2 * time.Second)
	for len(e.Neighbors()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stall peer never adopted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var wrote atomic.Int64
	go func() {
		payload := make([]byte, 1<<20)
		for {
			if err := e.Send("stall-peer", payload); err != nil {
				return // endpoint closed at test end
			}
			wrote.Add(1)
		}
	}()
	stalled := func() bool {
		before := wrote.Load()
		time.Sleep(100 * time.Millisecond)
		return wrote.Load() == before
	}
	for !stalled() {
		if time.Now().After(deadline.Add(3 * time.Second)) {
			t.Fatal("writer never blocked; cannot exercise the stall")
		}
	}
	return stall
}

// TestTCPSendStallIsolation is the regression test for the endpoint-wide
// send lock: a peer that stops reading (its socket buffers full) must stall
// only sends to that peer. Sends to other peers, Neighbors, SetHandler and
// Close must all stay live.
func TestTCPSendStallIsolation(t *testing.T) {
	e := newTCP(t)
	healthy := newTCP(t)
	stallWriter(t, e)

	// With the write blocked, every other endpoint operation must respond.
	got := make(chan string, 1)
	healthy.SetHandler(func(from string, payload []byte) {
		select {
		case got <- string(payload):
		default:
		}
	})
	opsDone := make(chan struct{})
	go func() {
		if err := e.Send(healthy.Addr(), []byte("alive")); err != nil {
			t.Errorf("Send to healthy peer: %v", err)
		}
		e.Neighbors()
		e.SetHandler(nil)
		close(opsDone)
	}()
	select {
	case <-opsDone:
	case <-time.After(3 * time.Second):
		t.Fatal("Send/Neighbors/SetHandler blocked behind a stalled peer")
	}
	select {
	case msg := <-got:
		if msg != "alive" {
			t.Errorf("healthy peer got %q", msg)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("healthy peer never received the message")
	}

	// Close must unblock the stalled writer and terminate.
	closeWithin(t, e, 3*time.Second)
}

// TestTCPReadWhileWriterStalled blocks a goroutine writing to a peer that
// never reads, then has that peer send ten frames: the connection's read
// loop must deliver them all, never waiting behind the stalled Write.
func TestTCPReadWhileWriterStalled(t *testing.T) {
	e := newTCP(t)
	const k = 10
	got := make(chan struct{}, k)
	e.SetHandler(func(from string, payload []byte) { got <- struct{}{} })
	stall := stallWriter(t, e)

	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	for i := 0; i < k; i++ {
		b.Reset()
		b.PutString("stall-peer")
		b.PutBytes([]byte{byte(i)})
		if _, err := wire.WriteFrame(stall, b.Bytes()); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	deadline := time.After(2 * time.Second)
	for i := 0; i < k; i++ {
		select {
		case <-got:
		case <-deadline:
			t.Fatalf("%d of %d frames delivered while a writer was stalled", i, k)
		}
	}
	closeWithin(t, e, 3*time.Second)
}

// TestTCPCrossedDials drives both endpoints into dialing each other at the
// same instant, repeatedly, and asserts both directions still deliver
// afterwards — the regression for the duplicate-dial race that closed a
// socket the remote had already adopted as its reply path.
func TestTCPCrossedDials(t *testing.T) {
	for i := 0; i < 10; i++ {
		func() {
			a := newTCP(t)
			b := newTCP(t)
			var gotA, gotB atomic.Int64
			a.SetHandler(func(from string, payload []byte) { gotA.Add(1) })
			b.SetHandler(func(from string, payload []byte) { gotB.Add(1) })

			start := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				<-start
				if err := a.Send(b.Addr(), []byte("a->b")); err != nil {
					t.Errorf("a->b: %v", err)
				}
			}()
			go func() {
				defer wg.Done()
				<-start
				if err := b.Send(a.Addr(), []byte("b->a")); err != nil {
					t.Errorf("b->a: %v", err)
				}
			}()
			close(start)
			wg.Wait()

			// Both reply paths must work after the crossed dials settle.
			if err := a.Send(b.Addr(), []byte("again")); err != nil {
				t.Errorf("a->b after cross: %v", err)
			}
			if err := b.Send(a.Addr(), []byte("again")); err != nil {
				t.Errorf("b->a after cross: %v", err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for gotA.Load() < 2 || gotB.Load() < 2 {
				if time.Now().After(deadline) {
					t.Fatalf("iter %d: deliveries a=%d b=%d, want 2+2",
						i, gotA.Load(), gotB.Load())
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
}

// TestTCPDialSingleflight asserts that concurrent first sends to the same
// peer share one dial instead of racing sockets into existence.
func TestTCPDialSingleflight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() { // consume whatever arrives; never reply
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()

	e := newTCP(t)
	const senders = 16
	var wg sync.WaitGroup
	wg.Add(senders)
	for i := 0; i < senders; i++ {
		go func(i int) {
			defer wg.Done()
			if err := e.Send(ln.Addr().String(), []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	time.Sleep(50 * time.Millisecond)
	if n := accepted.Load(); n != 1 {
		t.Errorf("concurrent first sends opened %d connections, want 1", n)
	}
}

// TestTCPConcurrentChaos hammers one endpoint with concurrent sends,
// broadcasts, neighbor queries, inbound connects and a mid-flight Close,
// under -race. The only invariant asserted is liveness: everything returns.
func TestTCPConcurrentChaos(t *testing.T) {
	e := newTCP(t)
	peers := make([]*TCPEndpoint, 3)
	for i := range peers {
		peers[i] = newTCP(t)
		peers[i].SetHandler(func(string, []byte) {})
	}
	e.SetHandler(func(string, []byte) {})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("worker %d", i))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 4 {
				case 0:
					e.Send(peers[i%3].Addr(), payload)
				case 1:
					e.Broadcast(payload)
				case 2:
					e.Neighbors()
				case 3:
					peers[i%3].Send(e.Addr(), payload)
				}
			}
		}(i)
	}
	time.Sleep(200 * time.Millisecond)
	closeWithin(t, e, 3*time.Second)
	close(stop)
	wg.Wait()
	// Sends after Close must fail fast, not hang.
	if err := e.Send(peers[0].Addr(), []byte("late")); err == nil {
		t.Error("Send after Close succeeded")
	}
}

// TestTCPQueuedFramesKeepSendOrder has four goroutines send numbered frames,
// small ones and some larger than the write queue, over one connection to a
// peer that echoes each back. The echoes make both read loops cork while
// the senders keep sending, so frames are queued, drained by whichever
// goroutine owns the write side, and written past the queue. Each sender's
// frames must arrive whole and in its order, at the peer and back home.
func TestTCPQueuedFramesKeepSendOrder(t *testing.T) {
	a, b := newTCP(t), newTCP(t)
	const workers, frames = 4, 200
	// inOrder returns a handler that checks each worker's numbers arrive in
	// sequence and counts the frames.
	inOrder := func(name string, got *atomic.Int64) Handler {
		next := make([]int, workers) // only the one read loop touches it
		return func(from string, payload []byte) {
			w, seq := int(payload[0]), int(payload[1])<<8|int(payload[2])
			if seq != next[w] {
				t.Errorf("%s: worker %d frame %d arrived when %d was due", name, w, seq, next[w])
			}
			next[w] = seq + 1
			got.Add(1)
		}
	}
	var atB, atA atomic.Int64
	check := inOrder("peer", &atB)
	b.SetHandler(func(from string, payload []byte) {
		check(from, payload)
		if err := b.Send(from, payload); err != nil {
			t.Errorf("echo: %v", err)
		}
	})
	a.SetHandler(inOrder("home", &atA))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; seq < frames; seq++ {
				size := 3 + seq%50
				if seq%50 == 0 {
					size = maxQueued + 1000
				}
				p := make([]byte, size)
				p[0], p[1], p[2] = byte(w), byte(seq>>8), byte(seq)
				if err := a.Send(b.Addr(), p); err != nil {
					t.Errorf("worker %d frame %d: %v", w, seq, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	waitFor(t, func() bool { return atA.Load() == workers*frames })
	if n := atB.Load(); n != workers*frames {
		t.Errorf("peer got %d frames, want %d", n, workers*frames)
	}
}
