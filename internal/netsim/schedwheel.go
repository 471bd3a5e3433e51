package netsim

import (
	"container/heap"
	"math/bits"
)

// This file is the simulator's event queue: a hashed hierarchical timing
// wheel. A binary heap pays O(log n) per schedule, and at a million
// beaconing hosts the heap itself becomes the tick bottleneck — every
// re-arm sifts through a seven-figure queue. The wheel makes scheduling
// O(1): an event hashes to a slot by its deadline,
// whole slots are drained as virtual time reaches them, and far-future
// events cascade down from coarser levels exactly once.
//
// Ordering contract (what every golden depends on): events fire in exactly
// (at, seq) order — earliest deadline first, insertion order within one
// instant — identical to the heap. The wheel guarantees it structurally:
// slots are drained in slot order, a drained slot's events are resolved
// through a small (at, seq) heap before any of them fires, and an event
// scheduled into the already-draining quantum goes straight into that heap.
// The heap survives as a test-only differential oracle (oracle_test.go
// plugs it in through eventQueue); TestWheelSchedulerMatchesHeapOracle and
// FuzzTimingWheelScheduler hold the two engines bit-identical.

// eventQueue is the simulator's pending-event store. It only orders: it
// yields events in (at, seq) order and judges none of them. Whether a
// timer's event is still live is decided by Sim.front alone.
type eventQueue interface {
	push(e *event)
	// peek returns the earliest event without removing it; nil when the
	// queue is empty.
	peek() *event
	// pop removes and returns the earliest event, or nil when empty.
	pop() *event
	// len counts pending events, live or not.
	len() int
}

// Wheel geometry. Level 0 slots are schedQuantum (2^20ns ~ 1.05ms) wide;
// each higher level's slots are 256x coarser, so four levels cover
// 2^52ns (~52 days) of virtual time ahead of the clock. Events beyond the
// horizon wait in an overflow list and are re-placed when the top level
// turns over.
const (
	schedQuantumBits = 20
	schedLevelBits   = 8
	schedSlots       = 1 << schedLevelBits
	schedSlotMask    = schedSlots - 1
	schedLevels      = 4
)

// schedLevel is one wheel level: 256 buckets plus an occupancy bitmap so
// empty stretches are skipped word-at-a-time instead of slot-at-a-time. A
// bucket is a singly-linked list through event.next, newest first: the
// order inside a bucket never matters, because a level-0 bucket resolves
// through the due heap and a coarser one re-places its events one by one.
// So filing and draining allocate nothing, and an empty bucket costs one
// pointer.
type schedLevel struct {
	buckets [schedSlots]*event
	occ     [schedSlots / 64]uint64
}

func (l *schedLevel) put(idx int, e *event) {
	e.next = l.buckets[idx]
	l.buckets[idx] = e
	l.occ[idx>>6] |= 1 << (uint(idx) & 63)
}

// empty reports whether no bucket of the level is occupied.
func (l *schedLevel) empty() bool {
	for _, word := range l.occ {
		if word != 0 {
			return false
		}
	}
	return true
}

// nextOccupied returns the smallest occupied bucket index >= from, or -1.
func (l *schedLevel) nextOccupied(from int) int {
	w := from >> 6
	word := l.occ[w] &^ (1<<(uint(from)&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= len(l.occ) {
			return -1
		}
		word = l.occ[w]
	}
}

// take removes bucket idx and returns its list (nil when empty).
func (l *schedLevel) take(idx int) *event {
	head := l.buckets[idx]
	l.buckets[idx] = nil
	l.occ[idx>>6] &^= 1 << (uint(idx) & 63)
	return head
}

// wheelQueue is the hashed hierarchical timing wheel.
type wheelQueue struct {
	levels [schedLevels]schedLevel
	// overflow lists (through event.next) the events beyond the top level's
	// horizon, re-placed when the top level turns over (or when the wheel is
	// otherwise empty).
	overflow *event
	// due holds the events of every already-reached slot, ordered by
	// (at, seq): the wheel's quantum is coarser than event deadlines, so the
	// current slot's events resolve their exact order through this heap.
	due eventHeap
	// cur is the next level-0 slot to drain: every event in slots < cur has
	// been moved into due (or fired), every pending event in the wheel is at
	// a slot >= cur.
	cur int64
	// count tracks all pending events (buckets + overflow + due); inWheel
	// counts buckets only.
	count   int
	inWheel int
}

func (w *wheelQueue) len() int { return w.count }

func (w *wheelQueue) push(e *event) {
	w.count++
	slot := int64(e.at) >> schedQuantumBits
	if slot < w.cur {
		// The clock is already inside (or past) this event's quantum: it
		// competes with the currently-draining slot on (at, seq) directly.
		heap.Push(&w.due, e)
		return
	}
	w.place(e, slot)
}

// place files an event at the finest level whose window covers its slot.
// Level l holds events whose slot, in level-l units, is within 256 of the
// clock's — so a bucket always maps to exactly one absolute slot and never
// mixes revolutions.
func (w *wheelQueue) place(e *event, slot int64) {
	for l := 0; l < schedLevels; l++ {
		shift := uint(schedLevelBits * l)
		if (slot>>shift)-(w.cur>>shift) < schedSlots {
			w.levels[l].put(int((slot>>shift)&schedSlotMask), e)
			w.inWheel++
			return
		}
	}
	e.next = w.overflow
	w.overflow = e
}

func (w *wheelQueue) peek() *event {
	for len(w.due) == 0 {
		if w.count == 0 {
			return nil
		}
		w.advance()
	}
	return w.due[0]
}

func (w *wheelQueue) pop() *event {
	e := w.peek()
	if e == nil {
		return nil
	}
	heap.Pop(&w.due)
	w.count--
	return e
}

// advance moves the clock position forward until at least one slot has been
// drained into due, cascading coarser levels down at their boundaries and
// skipping empty stretches by bitmap. Callers guarantee count > 0.
func (w *wheelQueue) advance() {
	for {
		if w.inWheel == 0 && len(w.due) == 0 {
			// Only overflow events remain: jump straight to the horizon
			// boundary that re-admits the earliest of them instead of
			// turning the empty wheel billions of slots.
			min := int64(w.overflow.at) >> schedQuantumBits
			for e := w.overflow.next; e != nil; e = e.next {
				if s := int64(e.at) >> schedQuantumBits; s < min {
					min = s
				}
			}
			const topMask = 1<<(schedLevelBits*(schedLevels-1)) - 1
			if jump := min &^ topMask; jump > w.cur {
				w.cur = jump
			}
		}
		if w.cur&schedSlotMask == 0 {
			w.cascade()
		}
		if j := w.levels[0].nextOccupied(int(w.cur & schedSlotMask)); j >= 0 {
			w.drainSlot(j)
			w.cur = w.cur&^schedSlotMask + int64(j) + 1
			return
		}
		w.cur = w.nextBoundary()
	}
}

// nextBoundary returns where advance goes once level 0 holds nothing for the
// rest of the clock's revolution. If level 0 holds anything at all, it is
// the next revolution, whose first slots those events fill. Otherwise no
// event can come due before some coarser level's next occupied bucket
// cascades down (or overflow is re-examined), so it is the earliest such
// block boundary: the wheel skips empty revolutions a whole coarse block at
// a time rather than 256 quanta per turn. Every boundary crossed on the way
// has an empty bucket, so skipping its cascade loses nothing.
func (w *wheelQueue) nextBoundary() int64 {
	next := w.cur&^schedSlotMask + schedSlots
	if !w.levels[0].empty() {
		return next
	}
	target := int64(-1)
	for l := 1; l < schedLevels; l++ {
		shift := uint(schedLevelBits * l)
		block := w.cur >> shift
		// Level l holds only blocks after the clock's own (its current
		// block was cascaded on entry), so the cyclic scan starts at the
		// next one and wraps at most once.
		from := int((block + 1) & schedSlotMask)
		j := w.levels[l].nextOccupied(from)
		if j < 0 {
			if j = w.levels[l].nextOccupied(0); j < 0 {
				continue
			}
		}
		at := (block + 1 + int64((j-from)&schedSlotMask)) << shift
		if target < 0 || at < target {
			target = at
		}
	}
	if w.overflow != nil {
		const top = schedLevelBits * (schedLevels - 1)
		if at := (w.cur>>top + 1) << top; target < 0 || at < target {
			target = at
		}
	}
	if target < next {
		return next
	}
	return target
}

// cascade pulls down, for every level whose block boundary the clock sits
// on, the bucket covering the block just entered — its events re-place at a
// finer level (an event is pulled down at most schedLevels-1 times, so the
// amortized cost per event is O(1)). At the top level's boundary, overflow
// events that now fit the horizon re-enter the wheel.
func (w *wheelQueue) cascade() {
	for l := schedLevels - 1; l >= 1; l-- {
		shift := uint(schedLevelBits * l)
		if w.cur&(1<<shift-1) != 0 {
			continue
		}
		for e := w.levels[l].take(int((w.cur >> shift) & schedSlotMask)); e != nil; {
			next := e.next
			w.inWheel--
			w.place(e, int64(e.at)>>schedQuantumBits)
			e = next
		}
	}
	if w.overflow != nil && w.cur&(1<<(schedLevelBits*(schedLevels-1))-1) == 0 {
		e := w.overflow
		w.overflow = nil
		for e != nil {
			next := e.next
			w.place(e, int64(e.at)>>schedQuantumBits)
			e = next
		}
	}
}

// drainSlot moves level-0 bucket idx into the due heap, which advance
// only drains into when it is empty: the bucket's events are appended and
// ordered by one heap.Init, not pushed one by one in list order.
func (w *wheelQueue) drainSlot(idx int) {
	for e := w.levels[0].take(idx); e != nil; {
		next := e.next
		e.next = nil
		w.due = append(w.due, e)
		w.inWheel--
		e = next
	}
	heap.Init(&w.due)
}
