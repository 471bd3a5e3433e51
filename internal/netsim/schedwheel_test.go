package netsim

import (
	"fmt"
	"testing"
	"time"
)

// TestWheelSchedulerMatchesHeapOracle is the engine-level differential the
// timing wheel ships under: the same seeded roaming crowd — mobility ticks,
// beacon bursts, loss RNG draws, neighbor churn — run on the wheel queue and
// on the binary-heap oracle must end bit-identical, at both worker counts.
func TestWheelSchedulerMatchesHeapOracle(t *testing.T) {
	const n = 400
	run := func(mk func(int64) *Sim, workers int) string {
		sim, net := buildCrowdOn(mk(42), 42, n, workers, 5*time.Second)
		sim.Run(60 * time.Second)
		return crowdFingerprint(net)
	}
	for _, workers := range []int{1, 4} {
		wheel := run(NewSim, workers)
		oracle := run(newSimHeap, workers)
		if wheel != oracle {
			t.Fatalf("workers=%d: wheel scheduler diverged from heap oracle (fingerprints differ)", workers)
		}
	}
}

// TestWheelFiringOrder pins the (time, sequence) contract directly: events
// across quantum boundaries, same-instant FIFO batches, zero delays and
// cancellations must fire in exactly the order the heap defines.
func TestWheelFiringOrder(t *testing.T) {
	for _, eng := range []struct {
		name string
		mk   func(int64) *Sim
	}{{"wheel", NewSim}, {"heap", newSimHeap}} {
		t.Run(eng.name, func(t *testing.T) {
			s := eng.mk(1)
			var got []int
			rec := func(id int) func() { return func() { got = append(got, id) } }
			// Same instant: scheduling order wins regardless of push order
			// relative to other deadlines.
			s.Schedule(50*time.Millisecond, rec(3))
			s.Schedule(10*time.Millisecond, rec(1))
			s.Schedule(50*time.Millisecond, rec(4))
			s.Schedule(10*time.Millisecond, rec(2))
			// Far future (beyond several wheel levels) and sub-quantum spacing.
			s.Schedule(90*time.Minute, rec(9))
			s.Schedule(50*time.Millisecond+time.Nanosecond, rec(5))
			stop := s.After(20*time.Millisecond, rec(99))
			stop()
			// Re-entrant zero-delay: fires within the same instant, after
			// everything already queued for it.
			s.Schedule(70*time.Millisecond, func() {
				got = append(got, 6)
				s.Schedule(0, rec(8))
				s.Schedule(0, func() { got = append(got, 10) })
			})
			s.Schedule(70*time.Millisecond, rec(7))
			s.RunUntilIdle(0)
			want := fmt.Sprint([]int{1, 2, 3, 4, 5, 6, 7, 8, 10, 9})
			if fmt.Sprint(got) != want {
				t.Fatalf("%s fired %v, want %v", eng.name, got, want)
			}
			if s.Pending() != 0 {
				t.Fatalf("pending %d after idle", s.Pending())
			}
		})
	}
}

// TestWheelOverflowHorizon schedules past the wheel's 4-level horizon
// (~52 virtual days) and across huge empty gaps: the overflow list and the
// empty-wheel jump must both deliver, in order, without spinning slots.
func TestWheelOverflowHorizon(t *testing.T) {
	s := NewSim(1)
	var got []string
	s.Schedule(80*24*time.Hour, func() { got = append(got, "far") })
	s.Schedule(80*24*time.Hour, func() { got = append(got, "far2") })
	s.Schedule(time.Second, func() { got = append(got, "near") })
	done := make(chan struct{})
	go func() {
		s.RunUntilIdle(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("wheel spun instead of jumping the empty gap")
	}
	if fmt.Sprint(got) != "[near far far2]" {
		t.Fatalf("fired %v", got)
	}
	if s.Now() != 80*24*time.Hour {
		t.Fatalf("clock %v", s.Now())
	}
}

// TestWheelRunBoundary checks Run's inclusive-until contract on the wheel:
// events at exactly until fire, later ones stay queued, and the clock lands
// on until.
func TestWheelRunBoundary(t *testing.T) {
	s := NewSim(1)
	fired := 0
	s.Schedule(time.Second, func() { fired++ })
	s.Schedule(time.Second+time.Nanosecond, func() { fired++ })
	s.Run(time.Second)
	if fired != 1 || s.Pending() != 1 || s.Now() != time.Second {
		t.Fatalf("fired=%d pending=%d now=%v", fired, s.Pending(), s.Now())
	}
	s.Run(2 * time.Second)
	if fired != 2 || s.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d", fired, s.Pending())
	}
}

// TestWheelPendingCancelled mirrors Pending's documented semantics on both
// engines: a stopped one-shot's event counts until Sim.front discards it in
// passing.
func TestWheelPendingCancelled(t *testing.T) {
	for _, eng := range []struct {
		name string
		mk   func(int64) *Sim
	}{{"wheel", NewSim}, {"heap", newSimHeap}} {
		t.Run(eng.name, func(t *testing.T) {
			s := eng.mk(1)
			stop := s.After(time.Second, func() {})
			s.Schedule(2*time.Second, func() {})
			stop()
			if s.Pending() != 2 {
				t.Fatalf("pending %d before discard", s.Pending())
			}
			s.RunUntilIdle(0)
			if s.Pending() != 0 {
				t.Fatalf("pending %d after idle", s.Pending())
			}
		})
	}
}

// TestTimerRearmHoldsOneEvent runs the request-timer shape: a 10 s timeout
// armed for a request, stopped by its reply half a millisecond later and
// re-armed by the next request, 10,000 times at 1 ms spacing. The timer
// keeps its one queued event and re-keys it, so the queue holds nothing
// else of it, a warm cycle allocates nothing, and the timer fires once, at
// the last Reset's deadline. A timer that filed a fresh event per Reset
// would leave some 10,000 stopped ones queued.
//
// A ticker re-arming every 2 ms stands for the rest of a world: some live
// event is always due before the request timer's, as in any busy world, so
// the queue cannot discard a stopped event early on its way to the next
// live one.
func TestTimerRearmHoldsOneEvent(t *testing.T) {
	const timeout, cycles = 10 * time.Second, 10_000
	s := NewSim(1)
	var tick interface {
		Reset(d time.Duration)
		Stop()
	}
	tick = s.NewTimer(func() { tick.Reset(2 * time.Millisecond) })
	tick.Reset(2 * time.Millisecond)
	var fired []time.Duration
	tm := s.NewTimer(func() { fired = append(fired, s.Now()) })
	maxPending, n := 0, 0
	watch := func() {
		if p := s.Pending(); p > maxPending {
			maxPending = p
		}
	}
	cycle := func() {
		tm.Reset(timeout)
		watch()
		s.RunFor(500 * time.Microsecond)
		tm.Stop()
		watch()
		s.RunFor(500 * time.Microsecond)
		watch()
		n++
	}
	for n < 1000 {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("a warm Reset/Stop cycle allocates %v, want 0", allocs)
	}
	for n < cycles {
		cycle()
	}
	if maxPending > 2 {
		t.Fatalf("Pending reached %d over %d Reset/Stop cycles, want <= 2 (the timer's event and the ticker's)", maxPending, n)
	}
	last := s.Now()
	tm.Reset(timeout)
	s.Run(last + 2*timeout)
	if len(fired) != 1 || fired[0] != last+timeout {
		t.Fatalf("timer fired at %v, want once at %v", fired, last+timeout)
	}
}

// TestWheelKeepsNoBucketStorage files events into all four wheel levels and
// the overflow list of a fresh Sim, then drains them. Buckets and the
// overflow list are lists through the events, so nothing is allocated
// besides the events and the timers that file them (both made beforehand
// here: the events wait on the free list) and the due heap (sized
// beforehand).
func TestWheelKeepsNoBucketStorage(t *testing.T) {
	delays := []time.Duration{
		0, 300 * time.Microsecond, 5 * time.Millisecond, 200 * time.Millisecond, // level 0
		time.Second, 30 * time.Second, // level 1
		10 * time.Minute, 3 * time.Hour, // level 2
		5 * time.Hour, 8 * time.Hour, // level 3
		60 * 24 * time.Hour, 90 * 24 * time.Hour, // overflow
	}
	const perDelay = 3
	// testing.AllocsPerRun runs its function once to warm up and once
	// measured: each run gets a fresh Sim of its own.
	sims := make([]*Sim, 2)
	timers := make([][]*timer, len(sims))
	var s *Sim
	fired := make([]time.Duration, 0, perDelay*len(delays))
	record := func() { fired = append(fired, s.Now()) }
	for i := range sims {
		sims[i] = NewSim(1)
		sims[i].queue.(*wheelQueue).due = make(eventHeap, 0, perDelay*len(delays))
		events := make([]event, perDelay*len(delays))
		for j := range events {
			sims[i].free = append(sims[i].free, &events[j])
			timers[i] = append(timers[i], sims[i].newTimer(record))
		}
	}
	run := 0
	allocs := testing.AllocsPerRun(1, func() {
		s, fired = sims[run], fired[:0]
		for i, tm := range timers[run] {
			tm.Reset(delays[i%len(delays)])
		}
		run++
		w := s.queue.(*wheelQueue)
		for l := range w.levels {
			if w.levels[l].occ == [schedSlots / 64]uint64{} {
				t.Errorf("no event filed at wheel level %d", l)
			}
		}
		if w.overflow == nil {
			t.Error("no event filed in the overflow list")
		}
		s.RunUntilIdle(0)
	})
	if allocs != 0 {
		t.Errorf("filing and draining every level of a fresh wheel allocated %v, want 0", allocs)
	}
	if len(fired) != perDelay*len(delays) {
		t.Fatalf("%d events fired, want %d", len(fired), perDelay*len(delays))
	}
	for i := range fired {
		if want := delays[i/perDelay]; fired[i] != want {
			t.Fatalf("event %d fired at %v, want %v", i, fired[i], want)
		}
	}
}

// TestWheelSkipsEmptyRevolutions files two events 2 and 40 virtual days out
// and drains them, ten times over on one Sim. Between the two only level 3
// holds anything, and level 0 is empty for 38 days, about 12 million of its
// 268 ms revolutions. advance must jump to the next occupied coarse bucket,
// not turn level 0 through each revolution: turning them took about 0.23 s
// per round, the jump a few microseconds, so the bound is far from both.
func TestWheelSkipsEmptyRevolutions(t *testing.T) {
	const day = 24 * time.Hour
	const rounds = 10
	s := NewSim(1)
	var fired []time.Duration
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, d := range []time.Duration{40 * day, 2 * day} {
			s.Schedule(d, func() { fired = append(fired, s.Now()) })
		}
		s.RunUntilIdle(0)
	}
	elapsed := time.Since(start)
	if len(fired) != 2*rounds {
		t.Fatalf("%d events fired, want %d", len(fired), 2*rounds)
	}
	for r := 0; r < rounds; r++ {
		base := time.Duration(r) * 40 * day
		if got := fired[2*r : 2*r+2]; got[0] != base+2*day || got[1] != base+40*day {
			t.Fatalf("round %d fired at %v, want [%v %v]", r, got, base+2*day, base+40*day)
		}
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("%d rounds of two far events took %v, want well under 100ms", rounds, elapsed)
	}
}
