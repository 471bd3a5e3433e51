package transport

import (
	"sync"
	"time"

	"logmob/internal/wire"
)

// Reliable adds a budgeted ack/retry layer to an Endpoint, for substrates
// where sends are silently lost (the simulator's lossy links) or fail
// transiently (a churned node that will rejoin, a peer that roams back into
// range). Every unicast payload is framed with a sequence number and
// retried until acked, up to a configured attempt budget; broadcasts pass
// through unacked (beacon traffic is periodic and self-healing).
//
// Delivery is at-least-once: a lost ack makes the sender retry a frame the
// receiver already delivered, so receivers may see duplicates. The logmob
// kernel tolerates this (request/reply matching dedupes replies, agent
// transfer is at-least-once by design); other users must be idempotent.
//
// Both ends of a conversation must speak the framing: wrap every endpoint
// of a world, or none (the scenario compiler wraps all hosts when
// Faults.Retry is enabled). Retries are scheduled on the given Scheduler,
// so over the simulator they are deterministic virtual-time events.
type Reliable struct {
	ep    Endpoint
	sched Scheduler
	cfg   ReliableConfig

	mu      sync.Mutex
	handler Handler // guarded by mu
	nextSeq uint64  // guarded by mu
	// pending is nil once Close has run: that is the closed flag, and a
	// separate bool would move Reliable up a size class.
	pending map[uint64]*relPending // guarded by mu
	relFree []*relPending          // recycled pending records, guarded by mu
	stats   ReliableStats          // guarded by mu
}

// relPending is one in-flight unicast: it stays in the pending map from
// first send until acked or given up, so an ack can never race a retry
// into a window where the slot is missing. Records are recycled, each with
// the retry timer it made once, bound to its own expire method.
type relPending struct {
	r        *Reliable
	to       string
	seq      uint64
	frame    []byte // built per send: a retry sends it outside the lock
	attempts int
	deadline time.Duration // when the armed retry timer is due
	timer    Timer
}

// ReliableConfig tunes the ack/retry layer.
type ReliableConfig struct {
	// Budget is the total number of send attempts per message (first try
	// included). Passed to NewReliable, 0 defaults to 3; in a scenario Spec
	// (Faults.Retry) 0 means the layer is not installed at all.
	Budget int
	// Timeout is how long to wait for an ack before the next attempt;
	// 0 defaults to 2s.
	Timeout time.Duration
}

func (c ReliableConfig) budget() int {
	if c.Budget > 0 {
		return c.Budget
	}
	return 3
}

func (c ReliableConfig) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 2 * time.Second
}

// ReliableStats counts ack/retry outcomes.
type ReliableStats struct {
	// Sent counts unicast payloads accepted for delivery.
	Sent int64
	// Acked counts payloads confirmed by the receiver.
	Acked int64
	// Retries counts re-send attempts beyond each payload's first.
	Retries int64
	// GaveUp counts payloads abandoned with their budget exhausted.
	GaveUp int64
	// AcksSent counts acknowledgement frames sent back to peers.
	AcksSent int64
}

// frame kinds.
const (
	relData  byte = 1 // unicast payload, wants an ack
	relAck   byte = 2 // acknowledgement for a relData seq
	relBcast byte = 3 // broadcast payload, no ack
)

// NewReliable wraps ep. The returned endpoint owns ep's handler slot;
// install the application handler on the Reliable, not on ep.
func NewReliable(ep Endpoint, sched Scheduler, cfg ReliableConfig) *Reliable {
	r := &Reliable{
		ep:      ep,
		sched:   sched,
		cfg:     cfg,
		pending: make(map[uint64]*relPending),
	}
	ep.SetHandler(r.dispatch)
	return r
}

var _ Endpoint = (*Reliable)(nil)

// Addr implements Endpoint.
func (r *Reliable) Addr() string { return r.ep.Addr() }

// Stats returns a copy of the layer's counters.
func (r *Reliable) Stats() ReliableStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Send implements Endpoint. It returns nil unless the layer is closed: a
// synchronous failure (peer out of range, down) consumes an attempt and is
// retried like a lost frame, because under churn and mobility the peer may
// be back before the budget runs out. Callers needing a completion signal
// use their own request timeouts, as the kernel does. After Close it
// returns ErrClosed and arms nothing.
func (r *Reliable) Send(to string, payload []byte) error {
	r.mu.Lock()
	if r.pending == nil {
		r.mu.Unlock()
		return ErrClosed
	}
	r.nextSeq++
	seq := r.nextSeq
	r.stats.Sent++
	// The frame is held by the record until the message is acked or
	// abandoned, and a retry sends it outside the lock, so it cannot come
	// from a pool.
	var fb wire.Buffer
	fb.PutByte(relData)
	fb.PutUint(seq)
	fb.PutBytes(payload)
	frame := fb.Bytes()
	p := r.getRelLocked()
	p.to, p.seq, p.frame, p.attempts = to, seq, frame, 1
	// Arm the slot and the timer under one critical section: the timer
	// callback and the ack path both take the lock first, so neither can
	// observe a half-armed state — even on wall-clock schedulers where
	// they run on other goroutines.
	r.armLocked(p)
	r.pending[seq] = p
	r.mu.Unlock()
	_ = r.ep.Send(to, frame) // a sync error is just a faster lost frame
	return nil
}

// armLocked (re)arms p's retry timer (r.mu must be held).
func (r *Reliable) armLocked(p *relPending) {
	d := r.cfg.timeout()
	p.deadline = r.sched.Now() + d
	p.timer.Reset(d)
}

// expire is the retry timer body: re-send with the budget's blessing, or
// give up. The pending entry stays in the map across retries, so a late
// ack always finds it. A firing for a record that has since been acked,
// recycled and re-armed (a wall-clock race) finds it either gone or not yet
// due, and returns.
func (p *relPending) expire() {
	r := p.r
	r.mu.Lock()
	if r.pending[p.seq] != p || r.sched.Now() < p.deadline {
		r.mu.Unlock()
		return // acked, closed or re-armed since this firing began
	}
	if p.attempts >= r.cfg.budget() {
		delete(r.pending, p.seq)
		r.stats.GaveUp++
		r.putRelLocked(p)
		r.mu.Unlock()
		return
	}
	p.attempts++
	r.stats.Retries++
	r.armLocked(p)
	to, frame := p.to, p.frame
	r.mu.Unlock()
	_ = r.ep.Send(to, frame)
}

// Broadcast implements Endpoint: broadcasts are framed but not acked.
func (r *Reliable) Broadcast(payload []byte) int {
	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	b.PutByte(relBcast)
	b.PutBytes(payload)
	return r.ep.Broadcast(b.Bytes())
}

// Neighbors implements Endpoint.
func (r *Reliable) Neighbors() []string { return r.ep.Neighbors() }

// SetHandler implements Endpoint.
func (r *Reliable) SetHandler(h Handler) {
	r.mu.Lock()
	r.handler = h
	r.mu.Unlock()
}

// Close implements Endpoint: outstanding retries are cancelled, and later
// sends fail.
func (r *Reliable) Close() error {
	r.mu.Lock()
	for _, p := range r.pending {
		r.putRelLocked(p)
	}
	r.pending = nil
	r.mu.Unlock()
	return r.ep.Close()
}

// getRelLocked takes a pending record from the free list, or makes one with
// its timer (r.mu must be held).
func (r *Reliable) getRelLocked() *relPending {
	if k := len(r.relFree); k > 0 {
		p := r.relFree[k-1]
		r.relFree[k-1] = nil
		r.relFree = r.relFree[:k-1]
		return p
	}
	p := &relPending{r: r}
	p.timer = r.sched.NewTimer(p.expire)
	return p
}

// putRelLocked stops p's timer and recycles p (r.mu must be held, and p must
// have left the pending map in the same hold). A firing already under way
// then finds p out of the map, or re-armed and not yet due.
func (r *Reliable) putRelLocked(p *relPending) {
	p.timer.Stop()
	p.to, p.frame, p.attempts = "", nil, 0
	if len(r.relFree) < 64 {
		r.relFree = append(r.relFree, p)
	}
}

// dispatch handles incoming frames: data is acked and delivered, acks
// retire pending retries, broadcasts are delivered as-is.
func (r *Reliable) dispatch(from string, payload []byte) {
	rd := wire.NewReader(payload)
	kind := rd.Byte()
	switch kind {
	case relData:
		seq := rd.Uint()
		// Alias instead of copying: delivery is synchronous and downstream
		// handlers own no part of the payload after they return.
		data := rd.AliasBytes()
		if rd.Err() != nil {
			return
		}
		b := wire.GetBuffer()
		b.PutByte(relAck)
		b.PutUint(seq)
		err := r.ep.Send(from, b.Bytes())
		wire.PutBuffer(b)
		if err == nil {
			r.mu.Lock()
			r.stats.AcksSent++
			r.mu.Unlock()
		}
		r.deliver(from, data)
	case relAck:
		seq := rd.Uint()
		if rd.Err() != nil {
			return
		}
		r.mu.Lock()
		if p := r.pending[seq]; p != nil {
			delete(r.pending, seq)
			r.stats.Acked++
			r.putRelLocked(p)
		}
		r.mu.Unlock()
	case relBcast:
		data := rd.AliasBytes()
		if rd.Err() != nil {
			return
		}
		r.deliver(from, data)
	}
}

func (r *Reliable) deliver(from string, data []byte) {
	r.mu.Lock()
	h := r.handler
	r.mu.Unlock()
	if h != nil {
		h(from, data)
	}
}
