package transport

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"logmob/internal/wire"
)

// maxQueued caps the bytes a connection's write queue holds. A frame that
// would overflow it is written directly, after whatever is queued.
const maxQueued = 64 << 10

// readBuffer sizes a read loop's bufio buffer: a burst of small frames
// arrives in one read, and a queued burst of replies can leave in one write.
const readBuffer = 64 << 10

// closeFlushWait bounds how long Close spends handing queued frames to the
// kernel, over all connections together, before it closes them.
const closeFlushWait = 100 * time.Millisecond

// tcpConn is one live TCP connection plus its write queue. Frames that
// become ready together leave in one Write: while the read loop has the
// connection corked, or while another goroutine is writing to it, a frame
// that fits is appended to q and its sender returns at once. The goroutine
// that owns the write side empties q before it gives the socket up, and no
// goroutine holds mu during a Write, so a peer that stops reading stalls
// only the goroutine writing to it. The zero value (with c set) is ready.
type tcpConn struct {
	c  net.Conn
	mu sync.Mutex
	// q holds queued frames, whole and in send order; spare is the buffer
	// the owner last wrote, reused as the next q.
	q, spare []byte // guarded by mu
	corked   bool   // guarded by mu; the read loop holds frames back while input waits
	writing  bool   // guarded by mu; a goroutine owns c's write side
	closed   bool   // guarded by mu; Close has flushed the queue, nothing more is taken
	// idle is signalled when writing clears; its L is mu, set on first Wait.
	idle sync.Cond
}

// write sends one whole frame, built by wire.Buffer.StartFrame and Frame.
// The frame is queued if the connection is corked or being written and it
// fits; otherwise the caller takes the write side, waiting for the owner if
// there is one, and writes the queue, then the frame, then whatever was
// queued meanwhile. Once Close has flushed the connection, write fails with
// ErrClosed: a queued frame would never leave.
func (tc *tcpConn) write(frame []byte) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if (tc.corked || tc.writing) && !tc.closed && len(tc.q)+len(frame) <= maxQueued {
		tc.q = append(tc.q, frame...)
		return nil
	}
	for tc.writing {
		if tc.idle.L == nil {
			tc.idle.L = &tc.mu
		}
		tc.idle.Wait()
	}
	if tc.closed {
		return ErrClosed
	}
	tc.writing = true
	return tc.drainLocked(frame)
}

// cork holds the frames sent from now on in the queue, until uncork.
func (tc *tcpConn) cork() {
	tc.mu.Lock()
	tc.corked = true
	tc.mu.Unlock()
}

// uncork lets frames leave again and writes what was queued, unless another
// goroutine owns the write side. That owner drains the queue, and neither
// caller, the read loop or Close, may wait behind its Write: the peer may
// have stopped reading.
func (tc *tcpConn) uncork() error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.uncorkLocked()
}

// shut is Close's uncork: in the same hold it refuses every later write, so
// no frame is queued behind the last flush.
func (tc *tcpConn) shut() error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.closed = true
	return tc.uncorkLocked()
}

// uncorkLocked is uncork's body. The caller holds mu.
func (tc *tcpConn) uncorkLocked() error {
	tc.corked = false
	if tc.writing || len(tc.q) == 0 {
		return nil
	}
	tc.writing = true
	return tc.drainLocked(nil)
}

// drainLocked writes the queue, then frame if it is not nil, then whatever
// was queued during those writes, until the queue is empty; then it gives
// the write side up. The caller holds mu and owns the write side; mu is
// released around each Write so that senders keep queueing. After a failed
// Write the queue is dropped with the connection.
func (tc *tcpConn) drainLocked(frame []byte) error {
	var err error
	for err == nil && (len(tc.q) > 0 || frame != nil) {
		out := tc.q
		tc.q = tc.spare[:0]
		tc.mu.Unlock()
		if len(out) > 0 {
			_, err = tc.c.Write(out)
		}
		if err == nil && frame != nil {
			_, err = tc.c.Write(frame)
			frame = nil
		}
		tc.mu.Lock()
		tc.spare = out[:0]
	}
	if err != nil {
		tc.q = tc.q[:0]
	}
	tc.writing = false
	tc.idle.Broadcast()
	return err
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
	live    map[*tcpConn]bool   // every open conn, adopted or not; guarded by mu
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
		live:    make(map[*tcpConn]bool),
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
func (e *TCPEndpoint) track(tc *tcpConn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.live[tc] = true
	e.wg.Add(1)
	return true
}

// untrack removes a connection from the live set and closes it.
func (e *TCPEndpoint) untrack(tc *tcpConn) {
	e.mu.Lock()
	delete(e.live, tc)
	e.mu.Unlock()
	tc.c.Close()
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		tc := &tcpConn{c: conn}
		if !e.track(tc) {
			conn.Close()
			return
		}
		go e.readLoop(tc, "")
	}
}

// readLoop consumes frames from tc. peer is the canonical remote address
// once known; for inbound connections it is learned from the first frame.
// The caller must have tracked the connection (which reserves the reader's
// waitgroup slot). The handler is lent each payload inside the connection's
// frame buffer, which the next frame overwrites (see Handler).
//
// The loop corks tc while it dispatches a frame with more input buffered
// behind it, so that what the dispatches send leaves in one write. A
// dispatch with nothing behind it runs uncorked: it may be long (a large
// unit's verify), and frames other goroutines send meanwhile should not wait
// for it. Before blocking for input the loop corks once more, across one
// yield, so that the goroutines its dispatches woke queue their next frames
// and those leave together too.
func (e *TCPEndpoint) readLoop(tc *tcpConn, peer string) {
	defer e.wg.Done()
	defer e.untrack(tc)
	defer func() {
		if peer != "" {
			e.dropConn(peer, tc)
		}
	}()
	br := bufio.NewReaderSize(tc.c, readBuffer)
	var buf []byte // per-connection frame buffer, reused across reads
	for {
		if br.Buffered() == 0 {
			tc.cork()
			runtime.Gosched()
			if tc.uncork() != nil {
				return
			}
		}
		frame, err := wire.ReadFrameInto(br, buf)
		if err != nil {
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
		if br.Buffered() > 0 {
			tc.cork()
		} else if tc.uncork() != nil {
			return
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
			e.live[tc] = true
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
// prefix, sender address, payload) is built in one pooled buffer and handed
// to the target connection, which writes it at once or copies it into its
// queue (see tcpConn). Either way only that connection is involved, so a
// slow or backpressured peer cannot stall sends to other peers, Neighbors,
// SetHandler or Close. A queued frame counts as sent.
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
	out := frame.Frame()
	if err := tc.write(out); err != nil {
		e.dropConn(to, tc)
		e.untrack(tc)
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	e.msgsSent.Add(1)
	e.bytesSent.Add(int64(len(out)))
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
// goroutines to exit. Each connection's queued frames are handed to the
// kernel first, for closeFlushWait at most over all of them.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	err := e.ln.Close()
	live := make([]*tcpConn, 0, len(e.live))
	for tc := range e.live {
		live = append(live, tc) //lint:allow maporder each connection is flushed and closed on its own; no result depends on the order
	}
	for peer := range e.conns {
		delete(e.conns, peer)
	}
	e.mu.Unlock()
	deadline := time.Now().Add(closeFlushWait) //lint:allow wallclock a write deadline is host time by definition
	for _, tc := range live {
		tc.c.SetWriteDeadline(deadline) // the conn is closed next, so an owner's Write ends either way
		tc.shut()
		tc.c.Close()
	}
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
