package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"logmob/internal/wire"
)

// handFrame builds the TCP frame format by hand, without wire's frame
// helpers: uvarint(len(body)) | body, where body = uvarint(len(addr)) | addr
// | uvarint(len(payload)) | payload.
func handFrame(addr string, payload []byte) []byte {
	body := binary.AppendUvarint(nil, uint64(len(addr)))
	body = append(body, addr...)
	body = binary.AppendUvarint(body, uint64(len(payload)))
	body = append(body, payload...)
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// TestTCPSocketBytes pins what Send puts on the socket: a hello frame
// announcing the sender, then one frame per message, byte for byte the
// hand-built format, with one- and three-byte length prefixes.
func TestTCPSocketBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	e := newTCP(t)

	small, large := []byte("ping"), make([]byte, 70000)
	for i := range large {
		large[i] = byte(i * 13)
	}
	want := handFrame(e.Addr(), nil)
	want = append(want, handFrame(e.Addr(), small)...)
	want = append(want, handFrame(e.Addr(), large)...)

	got := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, len(want))
		n, _ := io.ReadFull(conn, buf)
		got <- buf[:n]
	}()
	for _, p := range [][]byte{small, large} {
		if err := e.Send(ln.Addr().String(), p); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if b := <-got; !bytes.Equal(b, want) {
		t.Fatalf("socket carried %d bytes that differ from the %d hand-built ones", len(b), len(want))
	}
}

// countingConn counts the Write calls made on a net.Conn and notes any Write
// whose bytes are not a run of whole frames.
type countingConn struct {
	net.Conn
	writes atomic.Int64
	split  atomic.Bool
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	for br := bufio.NewReader(bytes.NewReader(p)); ; {
		if _, err := br.Peek(1); err != nil {
			break // every byte was part of a whole frame
		}
		if _, err := wire.ReadFrameInto(br, nil); err != nil {
			c.split.Store(true)
			break
		}
	}
	return c.Conn.Write(p)
}

// adopt makes conn, counted, e's connection to peer. No read loop runs on
// it, so nothing but the test corks or writes it.
func adopt(e *TCPEndpoint, peer string, conn net.Conn) (*tcpConn, *countingConn) {
	cc := &countingConn{Conn: conn}
	tc := &tcpConn{c: cc}
	e.mu.Lock()
	e.live[tc] = true
	e.conns[peer] = tc
	e.mu.Unlock()
	return tc, cc
}

// readFrames reads n frames from conn and returns their payloads, checking
// that each names sender.
func readFrames(conn net.Conn, sender string, n int) ([][]byte, error) {
	br := bufio.NewReader(conn)
	var out [][]byte
	for i := 0; i < n; i++ {
		frame, err := wire.ReadFrameInto(br, nil)
		if err != nil {
			return out, err
		}
		r := wire.NewReader(frame)
		if r.String() != sender {
			return out, fmt.Errorf("frame %d names another sender", i)
		}
		out = append(out, r.Bytes())
	}
	return out, nil
}

// TestTCPSendOneWrite pins that a frame is never split across Writes and
// never takes more than one: Send over a counting connection, with nothing
// corking it, issues at most one Write per message, whatever its size, and
// every Write carries whole frames.
func TestTCPSendOneWrite(t *testing.T) {
	e := newTCP(t)
	const peer = "peer:1"
	near, far := net.Pipe()
	defer far.Close()
	_, cc := adopt(e, peer, near)

	sizes := []int{0, 1, 300, 256 << 10}
	read := make(chan error, 1)
	go func() {
		got, err := readFrames(far, e.Addr(), len(sizes))
		for i := 0; err == nil && i < len(got); i++ {
			if len(got[i]) != sizes[i] {
				err = io.ErrUnexpectedEOF
			}
		}
		read <- err
	}()
	for _, n := range sizes {
		if err := e.Send(peer, make([]byte, n)); err != nil {
			t.Fatalf("Send %d bytes: %v", n, err)
		}
	}
	if err := <-read; err != nil {
		t.Fatalf("reading the frames back: %v", err)
	}
	if got := cc.writes.Load(); got > int64(len(sizes)) {
		t.Errorf("%d frames took %d Writes, want at most one each", len(sizes), got)
	}
	if cc.split.Load() {
		t.Error("a Write carried part of a frame")
	}
}

// TestTCPRepliesToABacklogLeaveTogether sends k requests in one burst to an
// endpoint whose handler answers each. The read loop has the burst buffered
// while it dispatches, so the k replies must leave in fewer than k Writes,
// each carrying whole frames, and arrive in order.
func TestTCPRepliesToABacklogLeaveTogether(t *testing.T) {
	e := newTCP(t)
	e.SetHandler(func(from string, payload []byte) {
		if err := e.Send(from, append([]byte("re:"), payload...)); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	const peer, k = "peer:1", 8
	near, far := net.Pipe()
	defer far.Close()
	cc := &countingConn{Conn: near}
	tc := &tcpConn{c: cc}
	if !e.track(tc) {
		t.Fatal("endpoint closed")
	}
	go e.readLoop(tc, "")

	burst := handFrame(peer, nil) // the hello
	for i := 0; i < k; i++ {
		burst = append(burst, handFrame(peer, []byte{byte('a' + i)})...)
	}
	replies := make(chan [][]byte, 1)
	go func() {
		got, err := readFrames(far, e.Addr(), k)
		if err != nil {
			t.Errorf("reading replies: %v", err)
		}
		replies <- got
	}()
	if _, err := far.Write(burst); err != nil {
		t.Fatalf("writing the burst: %v", err)
	}
	got := <-replies
	for i, p := range got {
		if want := "re:" + string(rune('a'+i)); string(p) != want {
			t.Errorf("reply %d is %q, want %q", i, p, want)
		}
	}
	if n := cc.writes.Load(); n >= k {
		t.Errorf("%d replies took %d Writes, want fewer", k, n)
	}
	if cc.split.Load() {
		t.Error("a Write carried part of a frame")
	}
}

// TestTCPCloseFlushesQueuedFrame queues a frame on a corked connection and
// closes the endpoint at once: the frame must still reach the peer.
func TestTCPCloseFlushesQueuedFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	near, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	far, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	e := newTCP(t)
	const peer = "peer:1"
	tc, _ := adopt(e, peer, near)

	tc.cork() // as the read loop does while a backlog waits
	if err := e.Send(peer, []byte("queued")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	tc.mu.Lock()
	queued := len(tc.q)
	tc.mu.Unlock()
	if queued == 0 {
		t.Fatal("the frame sent while corked was not queued")
	}
	closeWithin(t, e, 2*time.Second)

	far.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, err := readFrames(far, e.Addr(), 1)
	if err != nil {
		t.Fatalf("reading the queued frame: %v", err)
	}
	if string(got[0]) != "queued" {
		t.Errorf("the peer got %q, want the queued frame", got[0])
	}
}

// TestTCPWriteAfterCloseReportsClosed is the regression test for a frame
// lost with a nil error: a Send that fetched its connection before Close
// began writes after Close has flushed it, while the read loop has corked
// it again for a frame it is still dispatching. The frame used to be queued
// behind the last flush, and Send returned nil; now the write fails with
// ErrClosed and nothing is queued.
func TestTCPWriteAfterCloseReportsClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	near, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	far, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	e := newTCP(t)
	tc, _ := adopt(e, "peer:1", near)

	closeWithin(t, e, 2*time.Second)
	tc.cork() // the read loop, dispatching a frame it had buffered
	if err := tc.write(handFrame(e.Addr(), []byte("late"))); !errors.Is(err, ErrClosed) {
		t.Errorf("write after Close = %v, want ErrClosed", err)
	}
	tc.mu.Lock()
	queued := len(tc.q)
	tc.mu.Unlock()
	if queued != 0 {
		t.Errorf("%d bytes queued on a connection Close has flushed", queued)
	}
}
