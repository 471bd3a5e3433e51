package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
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

// countingConn counts the Write calls made on a net.Conn.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestTCPSendOneWrite pins that a frame leaves in a single Write: Send over
// a counting connection issues exactly one per message, whatever its size.
func TestTCPSendOneWrite(t *testing.T) {
	e := newTCP(t)
	near, far := net.Pipe()
	defer far.Close()
	cc := &countingConn{Conn: near}
	const peer = "peer:1"
	e.mu.Lock() // adopt the pipe as the conn to peer; no read loop runs on it
	e.live[cc] = true
	e.conns[peer] = &tcpConn{c: cc}
	e.mu.Unlock()

	sizes := []int{0, 1, 300, 256 << 10}
	read := make(chan error, 1)
	go func() {
		br := bufio.NewReader(far)
		var buf []byte
		for _, n := range sizes {
			frame, err := wire.ReadFrameInto(br, buf)
			if err != nil {
				read <- err
				return
			}
			if r := wire.NewReader(frame); r.String() != e.Addr() || len(r.AliasBytes()) != n {
				read <- io.ErrUnexpectedEOF
				return
			}
			buf = frame
		}
		read <- nil
	}()
	for _, n := range sizes {
		if err := e.Send(peer, make([]byte, n)); err != nil {
			t.Fatalf("Send %d bytes: %v", n, err)
		}
	}
	if err := <-read; err != nil {
		t.Fatalf("reading the frames back: %v", err)
	}
	if got := cc.writes.Load(); got != int64(len(sizes)) {
		t.Errorf("%d frames took %d Writes, want one each", len(sizes), got)
	}
}

// TestTCPUsageAgreesAcrossConnection is the regression test for counters
// that disagreed between the two ends: the sender counted length prefixes
// but not the hello as a message, the receiver the reverse. After k sends
// and a quiet connection, A's sent must equal B's received.
func TestTCPUsageAgreesAcrossConnection(t *testing.T) {
	a, b := newTCP(t), newTCP(t)
	b.SetHandler(func(string, []byte) {})
	const k = 3
	for i := 0; i < k; i++ {
		if err := a.Send(b.Addr(), make([]byte, 300)); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitFor(t, func() bool { return b.Usage().MsgsRecv >= k+1 }) // the k messages and the hello
	sent, recv := a.Usage(), b.Usage()
	if sent.MsgsSent != recv.MsgsRecv || sent.BytesSent != recv.BytesRecv {
		t.Errorf("A sent %d msgs / %d B, B received %d msgs / %d B", sent.MsgsSent, sent.BytesSent, recv.MsgsRecv, recv.BytesRecv)
	}
	if sent.MsgsSent != k+1 {
		t.Errorf("A sent %d msgs, want %d messages and the hello", sent.MsgsSent, k+1)
	}
}
