package netsim

import (
	"fmt"
	"testing"
	"time"
)

// FuzzTimingWheelScheduler drives random After/stop/advance scripts, and
// Reset/Stop scripts on a few reusable timers, against two simulators at
// once — the timing wheel and the binary-heap oracle — and demands the full
// firing transcript (event id at virtual time) and final clock/pending state
// match exactly. Delays are drawn so scripts cross quantum boundaries, pile
// events onto one instant (FIFO within a deadline), re-arm from inside
// callbacks (the beacon cadence shape), and reach past level-0 into the
// coarser wheels.
//
// A timer must fire exactly at the deadline of its live Reset, once, and
// never after Stop. The wheel world runs Sim's timers, which keep one
// queued event each and re-key it when it reaches the front; the heap world
// runs refTimer, which stops its one-shot and arms a fresh one. A re-keyed
// event that fired under a stale key, early in time or early among the
// events of its own instant, or a recycled event still reached through its
// old timer, shows up as a transcript that differs from the heap's.
func FuzzTimingWheelScheduler(f *testing.F) {
	// Beacon cadence: periodic re-arm at one interval, then advance.
	f.Add([]byte{0, 30, 0, 30, 0, 30, 3, 3, 3, 3})
	// Same-instant pile-up plus stops.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 2, 5, 3, 3})
	// Far-future arms that must cascade down through the levels.
	f.Add([]byte{0, 200, 0, 250, 0, 1, 4, 4, 4, 3, 3, 3})
	// A request timer re-armed before it is due, stopped, re-armed from its
	// own callback, with deliveries of other timers reusing its events.
	f.Add([]byte{5, 0, 12, 1, 5, 1, 7, 0, 5, 0, 2, 0, 6, 1, 2, 5, 2, 62, 2, 3, 120, 5, 3, 17, 0, 4})
	// Reset, Stop, a Step that discards (and recycles) the stopped event,
	// Reset again: a timer still holding the recycled event would re-key it
	// under someone else.
	f.Add([]byte{5, 1, 3, 0, 6, 1, 2, 5, 1, 0, 0})
	// A Reset later than the queued event: an After at 132 ms, then timer 0
	// Reset to 22 ms and again to 132 ms. Its event stays queued at 22 ms
	// and is re-filed there under the later key, so it fires after the After.
	f.Add([]byte{0, 12, 1, 5, 0, 2, 0, 5, 0, 12, 0, 4})
	// A Reset earlier than the queued event (the orphan path): 132 ms, then
	// 22 ms, then an After at 77 ms, and a window past all three. The 132 ms
	// event is orphaned and a fresh one filed at 22 ms; a timer that kept
	// the 132 ms event would fire only after the After had moved the clock
	// past 22 ms.
	f.Add([]byte{5, 0, 12, 0, 5, 0, 2, 0, 0, 7, 1, 3, 12, 4})
	// Stop and Reset at the stale event's own instant: an After and timer 0
	// both due at 22 ms; a Step fires the After, leaving the clock at 22 ms
	// with timer 0's event at the front; an After(0), then Stop and Reset(0).
	// The timer's key is now (22 ms, a later seq), so the After(0) fires
	// first; comparing only the instant would fire the timer first.
	f.Add([]byte{0, 2, 1, 5, 0, 2, 0, 2, 0, 0, 1, 6, 0, 5, 0, 0, 0, 4})
	// A re-arm from the timer's own callback: timer 0 due at 22 ms re-arms
	// itself twice, timer 1 due at 77 ms once, with a Reset of timer 0 in
	// between that its queued event absorbs.
	f.Add([]byte{5, 0, 2, 2, 5, 1, 7, 1, 3, 2, 5, 0, 7, 2, 4})

	const nTimers = 4
	f.Fuzz(func(t *testing.T, data []byte) {
		type world struct {
			sim     *Sim
			log     []string
			cancels []func()
			timers  [nTimers]interface {
				Reset(d time.Duration)
				Stop()
			}
			// due is each timer's live deadline, -1 when it must not fire;
			// rearm is how many more times its callback re-arms it.
			due   [nTimers]time.Duration
			rearm [nTimers]int
		}
		mk := func(build func(int64) *Sim, ref bool) *world {
			w := &world{sim: build(9)}
			for k := range w.timers {
				w.due[k] = -1
				fn := func() {
					now := w.sim.Now()
					if w.due[k] != now {
						t.Fatalf("timer %d fired at %v, want its live deadline %v (-1: stopped or already fired)", k, now, w.due[k])
					}
					w.due[k] = -1
					w.log = append(w.log, fmt.Sprintf("T%d@%v", k, now))
					if w.rearm[k] > 0 { // re-arm from inside the callback
						w.rearm[k]--
						d := time.Duration(k+1) * 7 * time.Millisecond
						w.due[k] = now + d
						w.timers[k].Reset(d)
					}
				}
				if ref {
					w.timers[k] = &refTimer{s: w.sim, fn: fn}
				} else {
					w.timers[k] = w.sim.NewTimer(fn)
				}
			}
			return w
		}
		worlds := [2]*world{mk(NewSim, false), mk(newSimHeap, true)}

		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		// Delay table mixes sub-quantum, multi-slot, level-1+ and zero
		// delays; index by byte so both worlds see identical values.
		delay := func(b byte) time.Duration {
			switch b % 5 {
			case 0:
				return 0
			case 1:
				return time.Duration(b) * 37 * time.Microsecond // inside one slot
			case 2:
				return time.Duration(b) * 11 * time.Millisecond // a few slots out
			case 3:
				return time.Duration(b) * 3 * time.Second // level 1
			default:
				return time.Duration(b) * 17 * time.Minute // level 2+
			}
		}
		id := 0
		arm := func(d time.Duration, rearm byte) {
			eid := id
			id++
			for _, w := range worlds {
				w := w
				left := 8 // bound re-arm chains so drains terminate
				var fn func()
				fn = func() {
					w.log = append(w.log, fmt.Sprintf("%d@%v", eid, w.sim.Now()))
					if rearm%4 == 0 && left > 0 { // periodic re-arm from inside the callback
						left--
						w.cancels = append(w.cancels, w.sim.After(d+time.Duration(rearm+1)*time.Millisecond, fn))
					}
				}
				w.cancels = append(w.cancels, w.sim.After(d, fn))
			}
		}
		steps := 0
		for pos < len(data) && steps < 200 {
			steps++
			switch op := next(); op % 7 {
			case 0: // After
				arm(delay(next()), next())
			case 1: // stop an outstanding one-shot
				if n := len(worlds[0].cancels); n > 0 {
					i := int(next()) % n
					for _, w := range worlds {
						w.cancels[i]()
					}
				}
			case 2: // Step both once
				for _, w := range worlds {
					w.sim.Step()
				}
			case 3: // Run a bounded window
				d := delay(next())
				for _, w := range worlds {
					w.sim.Run(w.sim.Now() + d)
				}
			case 4: // drain everything pending
				for _, w := range worlds {
					w.sim.RunUntilIdle(2_000_000)
				}
			case 5: // Reset a timer, pending or not
				k, d, rearm := int(next())%nTimers, delay(next()), int(next())%3
				for _, w := range worlds {
					w.due[k] = w.sim.Now() + d
					w.rearm[k] = rearm
					w.timers[k].Reset(d)
				}
			case 6: // Stop a timer, pending or not
				k := int(next()) % nTimers
				for _, w := range worlds {
					w.timers[k].Stop()
					w.due[k] = -1
				}
			}
			if worlds[0].sim.Now() != worlds[1].sim.Now() {
				t.Fatalf("clocks diverged: wheel %v heap %v", worlds[0].sim.Now(), worlds[1].sim.Now())
			}
		}
		// Final drain so every surviving timer's order is compared too. The
		// re-arm chains are periodic, so stop them first to terminate.
		for _, w := range worlds {
			for _, c := range w.cancels {
				c()
			}
			w.sim.RunUntilIdle(2_000_000)
		}
		if got, want := fmt.Sprint(worlds[0].log), fmt.Sprint(worlds[1].log); got != want {
			t.Fatalf("firing transcripts diverged:\nwheel: %s\nheap:  %s", got, want)
		}
		if worlds[0].sim.Pending() != worlds[1].sim.Pending() {
			t.Fatalf("pending diverged: wheel %d heap %d", worlds[0].sim.Pending(), worlds[1].sim.Pending())
		}
		for _, w := range worlds {
			for k, due := range w.due {
				if due != -1 {
					t.Fatalf("timer %d never fired for its Reset due at %v", k, due)
				}
			}
		}
	})
}

// FuzzBroadcastRuns drives op scripts drawn from the input bytes —
// broadcasts of every handler kind from every sender, unicasts, node
// up/down flips, jitter and drop rules set and cleared, partial Steps and
// bounded windows — against the four worlds of
// TestBroadcastRunsMatchPerReceiverOracle (run-folding Broadcast and the
// per-receiver oracle, each on wheel and heap) and demands identical
// traces, Usage, consumed sequence numbers and RNG state. Step is exercised
// only between whole drains: it counts events, and the two Broadcasts
// legitimately differ in how many events a burst is.
func FuzzBroadcastRuns(f *testing.F) {
	// One broadcast of each handler kind, windows in between.
	f.Add([]byte{0, 4, 0, 64, 1, 3, 0, 0, 1, 64, 1, 2, 0, 1, 2, 10, 0, 0, 3, 99, 0, 0, 4, 64, 1, 4, 0, 0, 5, 64})
	// Jitter on, a burst from every sender, jitter off, drain.
	f.Add([]byte{4, 3, 0, 0, 0, 32, 0, 1, 0, 32, 0, 4, 0, 32, 0, 7, 0, 32, 0, 9, 0, 32, 1, 1, 4, 0, 5})
	// Down/up flips and unicasts between bursts.
	f.Add([]byte{2, 3, 0, 0, 3, 64, 2, 3, 3, 1, 5, 0, 4, 2, 80, 1, 2, 2, 1, 0, 1, 6, 16, 5})

	kinds := []byte("pzurde")
	windows := []time.Duration{0, 500 * time.Microsecond, 9 * time.Millisecond, 31 * time.Millisecond, 650 * time.Millisecond, 3 * time.Second}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 600 {
			data = data[:600]
		}
		diffBcastWorlds(t, 0.1, func(w *bcastWorld) {
			w.scheduleOnDrop()
			w.net.SetEnergyBudget("a2", 40_000)
			pos := 0
			next := func() int {
				if pos >= len(data) {
					return 0
				}
				b := data[pos]
				pos++
				return int(b)
			}
			for pos < len(data) {
				switch next() % 6 {
				case 0: // broadcast
					from := w.ids[next()%len(w.ids)]
					kind := kinds[next()%len(kinds)]
					w.bcast(from, bcastPayload(kind, 1+next()))
				case 1: // run a bounded window
					w.sim.RunFor(windows[next()%len(windows)])
				case 2: // flip a node
					id := w.ids[next()%len(w.ids)]
					w.net.SetUp(id, !w.net.Node(id).Up)
				case 3: // unicast
					from, to := w.ids[next()%len(w.ids)], w.ids[next()%len(w.ids)]
					_ = w.net.Send(from, to, bcastPayload('p', 1+next())) // errors are part of neither trace
				case 4: // set or clear the global impairment
					ticks := next() % 4
					w.net.ImpairAll(Impairment{JitterTicks: ticks, JitterTick: time.Millisecond, Drop: float64(ticks) / 20})
				case 5: // drain, then a Step on the empty queue
					w.sim.RunUntilIdle(1_000_000)
					w.sim.Step()
				}
			}
		})
	})
}
