package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"logmob/internal/wire"
)

// tcpConn is one live TCP connection plus its write lock. Frame writes are
// serialised per connection, not per endpoint, so one backpressured peer
// stalls only senders to that peer.
type tcpConn struct {
	c  net.Conn
	mu sync.Mutex // serialises frame writes on c
}

// write puts one whole frame, built by wire.Buffer.StartFrame and Frame, on
// the connection in a single Write.
func (tc *tcpConn) write(frame []byte) (int, error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.c.Write(frame)
}

// TCPUsage counts an endpoint's application traffic, mirroring what the
// simulator meters per node so live runs can report the same traffic rows as
// simulated ones. Both ends count the same thing: whole frames, length prefix
// included, hello frames included, so one end's sent equals the other's
// received once the connection is quiet.
type TCPUsage struct {
	MsgsSent, BytesSent int64
	MsgsRecv, BytesRecv int64
}

// TCPEndpoint is an Endpoint over real TCP connections. Each message is one
// wire frame containing the sender address and the payload. Connections are
// opened lazily on first send and reused; inbound connections announce the
// peer's canonical address in a hello frame.
type TCPEndpoint struct {
	ln   net.Listener
	addr string

	mu      sync.Mutex
	conns   map[string]*tcpConn // peer -> adopted conn; guarded by mu
	dialing map[string]*tcpDial // in-flight dials by peer; guarded by mu
	live    map[net.Conn]bool   // every open conn, adopted or not; guarded by mu
	handler Handler             // guarded by mu
	closed  bool                // guarded by mu
	wg      sync.WaitGroup

	msgsSent, bytesSent atomic.Int64
	msgsRecv, bytesRecv atomic.Int64
}

// tcpDial is one in-flight outbound dial, deduplicating concurrent senders
// to the same peer (singleflight): the first caller dials, the rest wait on
// done and share the result.
type tcpDial struct {
	done chan struct{}
	tc   *tcpConn
	err  error
}

var _ Endpoint = (*TCPEndpoint)(nil)

// ListenTCP starts an endpoint listening on listenAddr (e.g. "127.0.0.1:0").
func ListenTCP(listenAddr string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	e := &TCPEndpoint{
		ln:      ln,
		addr:    ln.Addr().String(),
		conns:   make(map[string]*tcpConn),
		dialing: make(map[string]*tcpDial),
		live:    make(map[net.Conn]bool),
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the endpoint's listen address.
func (e *TCPEndpoint) Addr() string { return e.addr }

// Usage returns a snapshot of the endpoint's traffic counters.
func (e *TCPEndpoint) Usage() TCPUsage {
	return TCPUsage{
		MsgsSent: e.msgsSent.Load(), BytesSent: e.bytesSent.Load(),
		MsgsRecv: e.msgsRecv.Load(), BytesRecv: e.bytesRecv.Load(),
	}
}

// SetHandler installs the receive callback.
func (e *TCPEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// track registers a new connection in the live set and reserves a reader
// slot in the waitgroup, or reports false if the endpoint is closed (the
// caller must close the conn). Registration and the closed check share one
// critical section with Close, so every connection is either closed by
// Close or was never tracked — an accepted-but-silent inbound conn can no
// longer be missed and hang wg.Wait.
func (e *TCPEndpoint) track(c net.Conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.live[c] = true
	e.wg.Add(1)
	return true
}

// untrack removes a connection from the live set and closes it.
func (e *TCPEndpoint) untrack(c net.Conn) {
	e.mu.Lock()
	delete(e.live, c)
	e.mu.Unlock()
	c.Close()
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !e.track(conn) {
			conn.Close()
			return
		}
		go e.readLoop(&tcpConn{c: conn}, "")
	}
}

// readLoop consumes frames from tc. peer is the canonical remote address
// once known; for inbound connections it is learned from the first frame.
// The caller must have tracked the connection (which reserves the reader's
// waitgroup slot). The handler is lent each payload inside the connection's
// frame buffer, which the next frame overwrites (see Handler).
func (e *TCPEndpoint) readLoop(tc *tcpConn, peer string) {
	defer e.wg.Done()
	defer e.untrack(tc.c)
	br := bufio.NewReader(tc.c)
	var buf []byte // per-connection frame buffer, reused across reads
	for {
		frame, err := wire.ReadFrameInto(br, buf)
		if err != nil {
			if peer != "" {
				e.dropConn(peer, tc)
			}
			return
		}
		buf = frame
		r := wire.NewReader(frame)
		sender := r.AliasBytes()
		payload := r.AliasBytes()
		if r.ExpectEOF() != nil || len(sender) == 0 {
			continue // malformed frame; skip
		}
		e.msgsRecv.Add(1)
		e.bytesRecv.Add(int64(wire.FrameLen(len(frame))))
		from := peer
		if string(sender) != peer {
			from = string(sender)
		}
		if peer == "" {
			peer = from
			e.adoptConn(peer, tc)
		}
		e.mu.Lock()
		h := e.handler
		e.mu.Unlock()
		if h != nil && len(payload) > 0 {
			h(from, payload)
		}
	}
}

// adoptConn records an inbound connection under the peer's canonical address
// so replies reuse it.
func (e *TCPEndpoint) adoptConn(peer string, tc *tcpConn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.conns[peer]; !exists {
		e.conns[peer] = tc
	}
}

func (e *TCPEndpoint) dropConn(peer string, tc *tcpConn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.conns[peer] == tc {
		delete(e.conns, peer)
	}
}

// ErrClosed reports an operation on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// getConn returns the adopted connection to a peer, dialing one if needed.
// Concurrent callers for the same peer share a single dial: the losers wait
// for the winner instead of racing their own sockets into existence and
// closing the spares — a spare whose hello the remote had already adopted
// was the remote's reply path, and closing it silently severed it.
func (e *TCPEndpoint) getConn(to string) (*tcpConn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if tc, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return tc, nil
	}
	if d, ok := e.dialing[to]; ok {
		e.mu.Unlock()
		<-d.done
		if d.err != nil {
			return nil, d.err
		}
		return d.tc, nil
	}
	d := &tcpDial{done: make(chan struct{})}
	e.dialing[to] = d
	e.mu.Unlock()

	conn, err := e.dial(to)

	e.mu.Lock()
	delete(e.dialing, to)
	var tc *tcpConn
	if err == nil {
		if e.closed {
			err = ErrClosed
			conn.Close()
		} else {
			tc = &tcpConn{c: conn}
			e.live[conn] = true
			e.wg.Add(1)
			// Adopt the dialed conn unless an inbound conn from the same
			// peer was adopted while the dial was in flight (crossed
			// simultaneous dials). Either way the dialed conn stays open
			// with its own read loop: its hello may already be the
			// remote's adopted reply path.
			if existing, ok := e.conns[to]; ok {
				d.tc = existing
			} else {
				e.conns[to] = tc
				d.tc = tc
			}
		}
	}
	d.err = err
	e.mu.Unlock()
	close(d.done)
	if err != nil {
		return nil, err
	}
	go e.readLoop(tc, to)
	return d.tc, nil
}

// dial opens a connection to a peer and sends the hello frame (empty
// payload) announcing our canonical address so the peer can route replies
// over this connection.
func (e *TCPEndpoint) dial(to string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", to, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", to, err)
	}
	hello := wire.GetBuffer()
	hello.StartFrame()
	hello.PutString(e.addr)
	hello.PutBytes(nil)
	n, err := conn.Write(hello.Frame())
	wire.PutBuffer(hello)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: hello to %s: %w", to, err)
	}
	e.msgsSent.Add(1)
	e.bytesSent.Add(int64(n))
	return conn, nil
}

// Send transmits payload to the endpoint listening at to. The frame (length
// prefix, sender address, payload) is built in one pooled buffer and leaves
// in one Write, which holds only the target connection's lock, so a slow or
// backpressured peer cannot stall sends to other peers, Neighbors,
// SetHandler or Close.
func (e *TCPEndpoint) Send(to string, payload []byte) error {
	tc, err := e.getConn(to)
	if err != nil {
		return err
	}
	frame := wire.GetBuffer()
	defer wire.PutBuffer(frame)
	frame.StartFrame()
	frame.PutString(e.addr)
	frame.PutBytes(payload)
	n, err := tc.write(frame.Frame())
	if err != nil {
		e.dropConn(to, tc)
		e.untrack(tc.c)
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	e.msgsSent.Add(1)
	e.bytesSent.Add(int64(n))
	return nil
}

// Broadcast sends payload to every currently connected peer. The peer set
// is snapshotted once: sends can drop connections (and inbound connects can
// add them) concurrently, so the returned count is the number of peers
// actually targeted, not whatever the set holds afterwards.
func (e *TCPEndpoint) Broadcast(payload []byte) int {
	peers := e.Neighbors()
	for _, peer := range peers {
		_ = e.Send(peer, payload) // best effort
	}
	return len(peers)
}

// Neighbors returns the addresses of currently connected peers, sorted.
func (e *TCPEndpoint) Neighbors() []string {
	e.mu.Lock()
	out := make([]string, 0, len(e.conns))
	for peer := range e.conns {
		out = append(out, peer)
	}
	e.mu.Unlock()
	slices.Sort(out)
	return out
}

// Close shuts the listener and every live connection down — adopted or not,
// so a connection that was accepted but never sent its hello cannot keep a
// read loop (and therefore Close) waiting — and waits for all reader
// goroutines to exit.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	err := e.ln.Close()
	for c := range e.live {
		c.Close()
	}
	for peer := range e.conns {
		delete(e.conns, peer)
	}
	e.mu.Unlock()
	e.wg.Wait()
	return err
}

// WallScheduler implements Scheduler on wall-clock time.
type WallScheduler struct {
	start time.Time
}

var _ Scheduler = (*WallScheduler)(nil)

// NewWallScheduler returns a scheduler whose clock starts now.
func NewWallScheduler() *WallScheduler {
	//lint:allow wallclock WallScheduler is the real-time Scheduler; its clock is the host's by design
	return &WallScheduler{start: time.Now()}
}

// Now returns elapsed wall time since the scheduler was created.
//
//lint:allow wallclock elapsed host time is what a wall-clock scheduler reports
func (s *WallScheduler) Now() time.Duration { return time.Since(s.start) }

// After runs fn on its own goroutine after d.
func (s *WallScheduler) After(d time.Duration, fn func()) func() {
	t := time.AfterFunc(d, fn) //lint:allow wallclock a wall-clock scheduler fires on host time
	return func() { t.Stop() }
}

// NewTimer returns a stopped timer whose firings run fn on their own
// goroutine. It wraps time.AfterFunc, whose Reset and Stop never wait for a
// running callback.
func (s *WallScheduler) NewTimer(fn func()) Timer {
	t := time.AfterFunc(time.Hour, fn) //lint:allow wallclock a wall-clock timer fires on host time; created stopped
	t.Stop()
	return wallTimer{t}
}

// wallTimer adapts a *time.Timer to Timer, dropping its results.
type wallTimer struct{ t *time.Timer }

func (w wallTimer) Reset(d time.Duration) { w.t.Reset(d) }

func (w wallTimer) Stop() { w.t.Stop() }
