// Package netsim is a deterministic discrete-event simulator of the wireless
// environments the paper targets: ad-hoc piconets, wireless LANs, GPRS-style
// costed infrastructure links and fixed LANs.
//
// The simulator provides a virtual clock, a cancellable event queue, a node
// and link model with radio range, per-class bandwidth/latency/loss, per-byte
// monetary cost and energy, node mobility models, and exact per-node traffic
// accounting. All experiment claims about traffic volume, airtime and
// connectivity cost are measured against this substrate.
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
	// free holds recycled delivery and timer events. Only those land here:
	// they are created internally and never handed to callers, so no outside
	// reference can observe the reuse. Events returned by Schedule (and the
	// cancel closures from After) are never recycled.
	free []*Event
	// runFree holds recycled receiver lists of broadcast runs (see joinRun).
	// They live here rather than on the recycled events: most events are
	// singles and never need one.
	runFree [][]*Node
}

// NewSim returns a simulator whose PRNG is seeded with seed. Identical seeds
// yield identical runs. The event queue is a hashed hierarchical timing
// wheel (see schedwheel.go); it fires events in exactly the same (time,
// sequence) order as the binary-heap engine the tests keep as an oracle.
func NewSim(seed int64) *Sim {
	s := &Sim{rng: rand.New(rand.NewSource(seed)), seed: seed}
	s.queue = &wheelQueue{free: &s.free}
	return s
}

// Seed returns the seed the simulator was built with, so derived RNG
// streams (e.g. the netsim fault RNG) stay reproducible per run.
func (s *Sim) Seed() int64 { return s.seed }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's seeded PRNG.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Event is a scheduled callback. Cancel prevents a pending event from firing.
type Event struct {
	at  time.Duration
	seq uint64
	fn  func()

	// Typed delivery form: when src is non-nil the event is a network
	// message delivery from src to dst (reaching the network through
	// src.net) and fn is nil. Keeping the delivery parameters in the event
	// itself (instead of a per-message closure) lets the hot transmit path
	// run without allocating, and lets fired events return to the
	// simulator's free list. Nodes are never removed from a network, so the
	// pointers stay valid for as long as the event is pending.
	//
	// run, when non-empty, lists further receivers of the same broadcast
	// whose own events would have held seq+1, seq+2, … at this same instant
	// with this same air: one event stands for all of them (see joinRun).
	src, dst *Node
	run      []*Node
	data     []byte
	air      time.Duration
	// timer, when non-nil, marks a timer's event (src is then nil): firing
	// runs timer.fn. Once its timer supersedes or stops it, nothing but the
	// queue holds the event, so the queue recycles it when it discards it.
	timer    *timer
	canceled bool
	pooled   bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() { e.canceled = true }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero. Events scheduled for the same instant fire in scheduling order.
func (s *Sim) Schedule(delay time.Duration, fn func()) *Event {
	e := &Event{fn: fn}
	s.file(e, delay)
	return e
}

// file stamps e with its deadline, delay from now (a negative delay is
// zero), and the next sequence number, and queues it. Every event enters
// the queue here, so all of them share one clock and one sequence counter.
func (s *Sim) file(e *Event, delay time.Duration) {
	if delay < 0 {
		delay = 0
	}
	e.at = s.now + delay
	e.seq = s.seq
	s.seq++
	s.queue.push(e)
}

// newEvent takes a cleared event from the free list, or allocates one.
func (s *Sim) newEvent() *Event {
	if k := len(s.free); k > 0 {
		e := s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
		return e
	}
	return &Event{}
}

// scheduleDelivery schedules a typed message-delivery event: the
// closure-free fast path the Network uses for deliveries. The event comes
// from (and returns to) the simulator's free list, which is safe because
// delivery events are never exposed to callers. Ordering is identical to
// Schedule: same clock, same sequence counter. The event is returned so a
// broadcast can fold its following receivers into it (joinRun).
func (s *Sim) scheduleDelivery(delay time.Duration, src, dst *Node, data []byte, air time.Duration, pooled bool) *Event {
	e := s.newEvent()
	e.src = src
	e.dst = dst
	e.data = data
	e.air = air
	e.pooled = pooled
	s.file(e, delay)
	return e
}

// timer is the simulator's transport.Timer. It owns at most one pending
// event, taken from the free list: Reset files a fresh one exactly as
// Schedule would at that moment, and Reset and Stop cancel the old one and
// drop their reference to it, so only the queue still holds it (it recycles
// it on discard). A superseded event can therefore never fire, and a
// recycled one is never reached through its old timer.
type timer struct {
	s  *Sim
	fn func()
	ev *Event // the pending event; nil when stopped or fired
}

// NewTimer implements the transport.Scheduler contract: it returns a
// stopped timer that runs fn each time it fires. The result type is
// transport.Timer, spelled out because netsim cannot import transport.
func (s *Sim) NewTimer(fn func()) interface {
	Reset(d time.Duration)
	Stop()
} {
	return &timer{s: s, fn: fn}
}

// Reset arms the timer to fire after d, superseding any pending firing.
func (t *timer) Reset(d time.Duration) {
	t.Stop()
	e := t.s.newEvent()
	e.timer = t
	t.ev = e
	t.s.file(e, d)
}

// Stop cancels a pending firing, if any.
func (t *timer) Stop() {
	if t.ev != nil {
		t.ev.canceled = true
		t.ev = nil
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
func (s *Sim) joinRun(e *Event, delay time.Duration, dst *Node, air time.Duration) bool {
	if e.at != s.now+delay || e.air != air || s.seq != e.seq+1+uint64(len(e.run)) {
		return false
	}
	if e.run == nil {
		if k := len(s.runFree); k > 0 {
			e.run = s.runFree[k-1]
			s.runFree[k-1] = nil
			s.runFree = s.runFree[:k-1]
		} else {
			e.run = make([]*Node, 0, 8)
		}
	}
	e.run = append(e.run, dst)
	s.seq++
	return true
}

// fire executes a popped event. A single typed delivery is recycled into the
// free list first (its parameters are copied out), so the delivery handler
// can immediately reuse the event for anything it schedules. A run is swept
// in list order — dst, then run[0], run[1], … — and recycled after the
// sweep: a handler that re-broadcasts mid-sweep must not be handed the
// receiver list still being walked. A timer's event is recycled before its
// callback runs, which may Reset the timer at once. Plain callback events
// were handed to their scheduler and are never recycled.
func (s *Sim) fire(e *Event) {
	if e.src == nil {
		if t := e.timer; t != nil {
			t.ev = nil // a cancelled event never fires, so e was t's pending one
			*e = Event{}
			s.free = append(s.free, e)
			t.fn()
			return
		}
		e.fn()
		return
	}
	net, src, dst, run, data, air, pooled := e.src.net, e.src, e.dst, e.run, e.data, e.air, e.pooled
	if run == nil {
		*e = Event{}
		s.free = append(s.free, e)
		net.deliver(src, dst, data, air, pooled)
		return
	}
	// Only Broadcast builds runs, and its payload is shared, never pooled.
	net.deliver(src, dst, data, air, false)
	for _, d := range run {
		net.deliver(src, d, data, air, false)
	}
	clear(run)
	s.runFree = append(s.runFree, run[:0])
	*e = Event{}
	s.free = append(s.free, e)
}

// Step fires the earliest pending event. It returns false when no events
// remain. A broadcast's receivers that share one instant ride one event
// (see joinRun), so Step, Pending and RunUntilIdle's guard count events, not
// receptions.
func (s *Sim) Step() bool {
	e := s.queue.pop()
	if e == nil {
		return false
	}
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
		e := s.queue.peek()
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

// Pending returns the number of events in the queue, including cancelled
// events that have not yet been discarded. Like Step it counts events, not
// receptions: a pending broadcast run is one.
func (s *Sim) Pending() int { return s.queue.len() }

// After implements the transport.Scheduler contract: it schedules fn after d
// and returns a cancel function.
func (s *Sim) After(d time.Duration, fn func()) func() {
	e := s.Schedule(d, fn)
	return e.Cancel
}

// eventHeap is a min-heap ordered by (time, sequence).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*Event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
