// Package netsim is a deterministic discrete-event simulator of the wireless
// environments the paper targets: ad-hoc piconets, wireless LANs, GPRS-style
// costed infrastructure links and fixed LANs.
//
// The simulator provides a virtual clock, timers (the only way a callback
// runs later), an event queue that orders their firings and the network's
// deliveries, a node and link model with radio range, per-class
// bandwidth/latency/loss, per-byte monetary cost and energy, node mobility
// models, and exact per-node traffic accounting. All experiment claims
// about traffic volume, airtime and connectivity cost are measured against
// this substrate.
//
// The event loop is single-goroutine: handlers run inside Run and must not
// block. Determinism comes from the virtual clock plus a seeded PRNG; a
// given seed always reproduces the same run. At scale, the bulk per-tick
// work — mobility integration and neighbor-set recomputation — runs as a
// two-phase pipeline sharded across a worker pool (Network.SetWorkers):
// phase 1 computes in parallel against a read-only topology snapshot,
// phase 2 commits mutations and RNG draws serially in canonical node order,
// so results stay bit-identical to the serial engine at any worker count.
// See parallel.go.
package netsim

import (
	"fmt"
	"math/rand"
	"time"
)

// Sim is a discrete-event scheduler with a virtual clock.
type Sim struct {
	now   time.Duration
	queue eventQueue
	seq   uint64
	rng   *rand.Rand
	seed  int64
	// free holds recycled events. Every event is made here and none is
	// handed to a caller, so no outside reference can observe the reuse.
	free []*event
	// runFree holds recycled receiver lists of broadcast runs (see joinRun).
	// They live here rather than on the recycled events: most events are
	// singles and never need one.
	runFree []*runList
}

// NewSim returns a simulator whose PRNG is seeded with seed. Identical seeds
// yield identical runs. The event queue is a hashed hierarchical timing
// wheel (see schedwheel.go); it fires events in exactly the same (time,
// sequence) order as the binary-heap engine the tests keep as an oracle.
func NewSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed)), seed: seed, queue: &wheelQueue{}}
}

// Seed returns the seed the simulator was built with, so derived RNG
// streams (e.g. the netsim fault RNG) stay reproducible per run.
func (s *Sim) Seed() int64 { return s.seed }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's seeded PRNG.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// event is a queued firing: a timer's or a network delivery's. Events are
// made and recycled by the simulator only.
type event struct {
	at  time.Duration
	seq uint64

	// Typed delivery form: when src is non-nil the event is a network
	// message delivery from src to dst (reaching the network through
	// src.net). Keeping the delivery parameters in the event itself
	// (instead of a per-message closure) lets the hot transmit path run
	// without allocating, and lets fired events return to the simulator's
	// free list. Nodes are never removed from a network, so the pointers
	// stay valid for as long as the event is pending.
	//
	// run, when non-nil, lists further receivers of the same broadcast
	// whose own events would have held seq+1, seq+2, … at this same instant
	// with this same air: one event stands for all of them (see joinRun).
	// It is a pointer, not a slice, so that event stays small
	// (TestEventSize).
	src, dst *Node
	run      *runList
	data     []byte
	air      time.Duration
	// timer, when non-nil, marks a timer's event (src is then nil): firing
	// runs timer.fn. A timer queues at most one event at a time and re-keys
	// it rather than filing another (see timer); an event whose timer has
	// moved on to another (timer.ev != e) is an orphan, which Sim.front
	// recycles when it reaches the front.
	timer *timer
	// next links the event into its wheel bucket or the overflow list
	// (schedwheel.go); it is meaningless once the event has left them.
	next   *event
	pooled bool
}

// runList is a broadcast run's receiver list: one allocation holding the
// slice header and its first eight slots, recycled through Sim.runFree.
type runList struct {
	nodes  []*Node
	inline [8]*Node
}

// Schedule runs fn once after delay of virtual time: a one-shot timer. A
// negative delay is treated as zero. Callbacks due at the same instant run
// in the order they were scheduled.
func (s *Sim) Schedule(delay time.Duration, fn func()) {
	s.newTimer(fn).Reset(delay)
}

// After is Schedule with a way back: the returned function stops the
// one-shot timer if it has not fired.
func (s *Sim) After(d time.Duration, fn func()) func() {
	t := s.newTimer(fn)
	t.Reset(d)
	return t.Stop
}

// key returns the (at, seq) key of an event filed now to fire after delay
// (a negative delay is zero), consuming the next sequence number. Every key
// is made here, by a delivery or by a timer's Reset, so all events share
// one clock and one sequence counter.
func (s *Sim) key(delay time.Duration) (time.Duration, uint64) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	return s.now + delay, s.seq - 1
}

// newEvent takes a cleared event from the free list, or allocates one.
func (s *Sim) newEvent() *event {
	if k := len(s.free); k > 0 {
		e := s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
		return e
	}
	return &event{}
}

// recycle clears e and returns it to the free list.
func (s *Sim) recycle(e *event) {
	*e = event{}
	s.free = append(s.free, e)
}

// scheduleDelivery schedules a typed message-delivery event: the
// closure-free fast path the Network uses for deliveries. Ordering is
// identical to a timer's: same clock, same sequence counter. The event is
// returned so a broadcast can fold its following receivers into it
// (joinRun).
func (s *Sim) scheduleDelivery(delay time.Duration, src, dst *Node, data []byte, air time.Duration, pooled bool) *event {
	e := s.newEvent()
	e.src = src
	e.dst = dst
	e.data = data
	e.air = air
	e.pooled = pooled
	e.at, e.seq = s.key(delay)
	s.queue.push(e)
	return e
}

// timer is the simulator's transport.Timer, and the only way a callback
// runs later. It owns at most one queued event, taken from the free list,
// and keeps its live deadline as the (at, seq) key that a fresh event filed
// by its last Reset would carry. Reset takes that key from Sim.key, so
// every other event keeps its order, but it files nothing while the queued
// event is keyed no later than the new deadline: the event stays, and when
// it reaches the front of the queue (Sim.front) it is re-filed under the
// timer's key, or recycled if Stop has disarmed the timer. A request timer
// that a reply stops and the next request re-arms thus holds one event,
// not one per request. Only a Reset to an earlier deadline files a fresh
// event; the queued one is orphaned, and Sim.front recycles it.
type timer struct {
	s     *Sim
	fn    func()
	ev    *event // the queued event; nil when none is queued
	at    time.Duration
	seq   uint64
	armed bool // at and seq are live: Reset since the last Stop or firing
}

// NewTimer implements the transport.Scheduler contract: it returns a
// stopped timer that runs fn each time it fires. The result type is
// transport.Timer, spelled out because netsim cannot import transport.
func (s *Sim) NewTimer(fn func()) interface {
	Reset(d time.Duration)
	Stop()
} {
	return s.newTimer(fn)
}

// newTimer is NewTimer with the concrete type, for netsim's own callbacks
// (the mobility and churn ticks, Schedule): a timer re-armed from its own
// callback files a recycled event and allocates nothing.
func (s *Sim) newTimer(fn func()) *timer { return &timer{s: s, fn: fn} }

// Reset arms the timer to fire after d, superseding any pending firing.
func (t *timer) Reset(d time.Duration) {
	s := t.s
	t.at, t.seq = s.key(d)
	t.armed = true
	if e := t.ev; e != nil && e.at <= t.at { // its seq is older, so it is keyed before (at, seq)
		return
	}
	e := s.newEvent()
	e.timer = t
	e.at, e.seq = t.at, t.seq
	t.ev = e
	s.queue.push(e)
}

// Stop cancels a pending firing, if any. The queued event stays until it
// reaches the front of the queue, where it is recycled or, after a later
// Reset, re-filed.
func (t *timer) Stop() { t.armed = false }

// front returns the earliest event that would fire, or nil when none is
// queued. It is the one place that decides whether a queued event is live:
// a delivery always is, and a timer's event is live when it is its timer's
// one event, the timer is armed and the event carries the timer's key. A
// timer's event that comes to the front out of date is dealt with first:
// an orphan, or the event of a disarmed timer, is recycled; one whose
// timer a Reset moved on is re-filed under the timer's key. The full
// (at, seq) key is compared, so a Reset at the queued event's own instant
// still fires after whatever was filed before it.
func (s *Sim) front() *event {
	for {
		e := s.queue.peek()
		if e == nil {
			return nil
		}
		t := e.timer
		if t == nil || (t.ev == e && t.armed && e.at == t.at && e.seq == t.seq) {
			return e
		}
		s.queue.pop()
		if t.ev != e { // an orphan
			s.recycle(e)
			continue
		}
		if !t.armed {
			t.ev = nil
			s.recycle(e)
			continue
		}
		e.at, e.seq = t.at, t.seq
		s.queue.push(e)
	}
}

// joinRun files dst as one more receiver of the pending delivery e instead
// of scheduling an event of its own, and reports whether it could. It can
// iff dst's event would have been e's immediate successor in firing order
// with the same parameters: same instant, same air, and a sequence number
// consecutive with the run's last receiver — nothing was scheduled since.
// dst then consumes the sequence number its event would have taken, so every
// later event keeps its relative order. This is exact, not approximate: no
// other event can sort between consecutive sequence numbers at one instant,
// and whatever a handler schedules while the run is swept gets a larger
// sequence number and fires after the run, as it did after the last of the
// separate events.
func (s *Sim) joinRun(e *event, delay time.Duration, dst *Node, air time.Duration) bool {
	if e.at != s.now+delay || e.air != air || s.seq != e.seq+1+uint64(e.run.len()) {
		return false
	}
	r := e.run
	if r == nil {
		if k := len(s.runFree); k > 0 {
			r = s.runFree[k-1]
			s.runFree[k-1] = nil
			s.runFree = s.runFree[:k-1]
		} else {
			r = &runList{}
			r.nodes = r.inline[:0]
		}
		e.run = r
	}
	r.nodes = append(r.nodes, dst)
	s.seq++
	return true
}

// len is the number of receivers on the list; a nil list has none.
func (r *runList) len() int {
	if r == nil {
		return 0
	}
	return len(r.nodes)
}

// fire executes a popped event. A single typed delivery is recycled into the
// free list first (its parameters are copied out), so the delivery handler
// can immediately reuse the event for anything it schedules. A run is swept
// in list order — dst, then run.nodes[0], run.nodes[1], … — and recycled
// after the sweep: a handler that re-broadcasts mid-sweep must not be handed
// the receiver list still being walked. A timer's event is recycled, and
// the timer disarmed, before its callback runs, which may Reset it at once.
func (s *Sim) fire(e *event) {
	if t := e.timer; t != nil {
		t.ev, t.armed = nil, false // front returned e, so e was t's live event
		s.recycle(e)
		t.fn()
		return
	}
	net, src, dst, run, data, air, pooled := e.src.net, e.src, e.dst, e.run, e.data, e.air, e.pooled
	if run == nil {
		s.recycle(e)
		net.deliver(src, dst, data, air, pooled)
		return
	}
	// Only Broadcast builds runs, and its payload is shared, never pooled.
	net.deliver(src, dst, data, air, false)
	for _, d := range run.nodes {
		net.deliver(src, d, data, air, false)
	}
	clear(run.nodes)
	clear(run.inline[:]) // stale once nodes outgrew it
	run.nodes = run.nodes[:0]
	s.runFree = append(s.runFree, run)
	s.recycle(e)
}

// Step fires the earliest pending event. It returns false when no events
// remain. A broadcast's receivers that share one instant ride one event
// (see joinRun), so Step, Pending and RunUntilIdle's guard count events, not
// receptions.
func (s *Sim) Step() bool {
	e := s.front()
	if e == nil {
		return false
	}
	s.queue.pop()
	if e.at > s.now {
		s.now = e.at
	}
	s.fire(e)
	return true
}

// Run fires events until the virtual clock would pass until, then sets the
// clock to until. Events at exactly until do fire.
func (s *Sim) Run(until time.Duration) {
	for {
		e := s.front()
		if e == nil || e.at > until {
			break
		}
		s.queue.pop()
		if e.at > s.now {
			s.now = e.at
		}
		s.fire(e)
	}
	if until > s.now {
		s.now = until
	}
}

// RunFor advances the clock by d, firing events due in that window.
func (s *Sim) RunFor(d time.Duration) {
	s.Run(s.now + d)
}

// RunUntilIdle fires events until the queue is empty. It panics after
// maxEvents events as a guard against runaway recurring schedules; pass 0 for
// the default of 50 million.
func (s *Sim) RunUntilIdle(maxEvents int) {
	if maxEvents <= 0 {
		maxEvents = 50_000_000
	}
	for i := 0; s.Step(); i++ {
		if i >= maxEvents {
			panic(fmt.Sprintf("netsim: RunUntilIdle exceeded %d events", maxEvents))
		}
	}
}

// Pending returns the number of events in the queue, including the events
// of stopped timers and orphaned ones that front has not yet discarded (a
// timer holds at most one live event). Like Step it counts events, not
// receptions: a pending broadcast run is one.
func (s *Sim) Pending() int { return s.queue.len() }

// eventHeap is a min-heap ordered by (time, sequence).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
