package netsim

import "slices"

// wheelIdle marks a member with no armed wake slot.
const wheelIdle int64 = -1 << 62

// timeWheel is a deterministic tick-quantized scheduler: members (dense
// small-integer indices, e.g. a Mobility's node indices) are armed at an
// absolute tick slot and collected when that slot is reached. It is the
// sparse-ticking engine behind Mobility: a quiescent node (paused at a
// waypoint, path exhausted, parked while down) has no armed slot and costs
// nothing until its wake tick.
//
// Determinism contract: collect returns each slot's due members in
// ascending member order, so the wheel's due set visits nodes in exactly
// the order the dense per-node loop would — the subset changes, the order
// never does. Arming is earliest-wins and cancellation is lazy (the armed
// table is authoritative; stale slot entries are skipped at collect time),
// so no operation ever reorders or loses a live entry.
type timeWheel struct {
	// armed is the authoritative per-member wake slot (wheelIdle = parked).
	armed []int64
	// slots holds the pending membership lists keyed by absolute slot.
	// Entries may be stale (member re-armed earlier or cancelled); collect
	// filters them against armed.
	slots map[int64]*wheelSlot
	free  []*wheelSlot // recycled slot buckets, membership capacity kept warm
}

// wheelSlot is one pending tick's membership list. Appends in ascending
// member order keep sorted true, so the steady state (nodes arming in
// canonical commit order) never pays a sort at collect time.
type wheelSlot struct {
	members []int32
	sorted  bool
}

// newTimeWheel returns a wheel for members 0..n-1, all parked.
func newTimeWheel(n int) *timeWheel {
	w := &timeWheel{armed: make([]int64, n), slots: make(map[int64]*wheelSlot)}
	for i := range w.armed {
		w.armed[i] = wheelIdle
	}
	return w
}

// ensure grows the armed table to cover member i. Mobility sizes the wheel
// up front; this keeps ad-hoc use (tests, fuzzing) safe.
func (w *timeWheel) ensure(i int32) {
	for int(i) >= len(w.armed) {
		w.armed = append(w.armed, wheelIdle)
	}
}

// arm schedules member i to fire at slot. Earliest wins: arming a member
// already due sooner is a no-op, arming it earlier moves the wake forward
// and the later slot entry goes stale. Re-arming at the same slot never
// duplicates the firing.
func (w *timeWheel) arm(i int32, slot int64) {
	w.ensure(i)
	if cur := w.armed[i]; cur != wheelIdle && cur <= slot {
		return
	}
	w.armed[i] = slot
	s := w.slots[slot]
	if s == nil {
		if k := len(w.free); k > 0 {
			s = w.free[k-1]
			w.free[k-1] = nil
			w.free = w.free[:k-1]
			s.members = s.members[:0]
		} else {
			s = &wheelSlot{}
		}
		s.sorted = true
		w.slots[slot] = s
	}
	if k := len(s.members); k > 0 && s.members[k-1] > i {
		s.sorted = false
	}
	s.members = append(s.members, i)
}

// collect appends the members due exactly at slot to out in ascending
// member order, disarms them, and retires the slot. The caller advances
// one slot per tick, so every populated slot is eventually drained.
func (w *timeWheel) collect(slot int64, out []int32) []int32 {
	s := w.slots[slot]
	if s == nil {
		return out
	}
	delete(w.slots, slot)
	if !s.sorted {
		slices.Sort(s.members)
	}
	for _, i := range s.members {
		// Skip stale entries: cancelled, re-armed earlier (already fired),
		// or a same-slot duplicate that already passed this filter.
		if w.armed[i] == slot {
			w.armed[i] = wheelIdle
			out = append(out, i)
		}
	}
	w.free = append(w.free, s)
	return out
}
