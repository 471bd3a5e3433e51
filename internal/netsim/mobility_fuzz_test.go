package netsim

import (
	"testing"
	"time"
)

// FuzzMobilityMatchesDense runs one seeded crowd three times through a
// fuzzed churn script: under a mobility model, under its dense wrapper (due
// every tick) and under the test-side denseLoop. It demands bit-identical
// worlds: positions, epochs, neighbor sets and the RNG stream. The bytes pick the model, the crowd
// size, the worker count and the script. A churn event lands either
// between ticks, or on a tick's own instant scheduled up front (it fires
// before that tick), or on a tick's instant scheduled from a callback at
// that instant (it fires after the tick).
//
// Layout: data[0] model, data[1] crowd, data[2] workers, then one event
// per three bytes (member, second, kind).
func FuzzMobilityMatchesDense(f *testing.F) {
	// Short-pause waypoint crowd: crashes and rejoins on tick instants,
	// before and after the tick.
	f.Add([]byte{0, 20, 0, 3, 4, 0, 3, 9, 4, 5, 6, 2, 5, 12, 6})
	// Long-pause waypoint crowd on two workers: rejoins between ticks,
	// inside and after a pause.
	f.Add([]byte{1, 31, 1, 0, 5, 1, 0, 30, 5, 7, 8, 1, 7, 9, 5, 2, 40, 2, 2, 41, 6})
	// A walk that ends (the member parks for good) with churn across the end.
	f.Add([]byte{2, 12, 0, 1, 20, 0, 1, 50, 4, 4, 33, 3, 4, 34, 7})
	// Static crowd: every member parked from the start.
	f.Add([]byte{3, 8, 1, 0, 2, 0, 0, 3, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		model := func() MobilityModel {
			switch data[0] % 4 {
			case 0:
				return &RandomWaypoint{FieldW: 400, FieldH: 400, SpeedMin: 20, SpeedMax: 60, Pause: 2 * time.Second}
			case 1:
				return &RandomWaypoint{FieldW: 400, FieldH: 400, SpeedMin: 20, SpeedMax: 60, Pause: 25 * time.Second}
			case 2:
				return &Waypath{Speed: 30, Points: []Position{{X: 50, Y: 50}, {X: 300, Y: 80}, {X: 120, Y: 350}}}
			}
			return Static{}
		}
		n := 8 + int(data[1]%40)
		workers := 1 + int(data[2]%2)
		script := data[3:]
		churn := func(sim *Sim, net *Network, ids []string) {
			for k := 0; k+2 < len(script); k += 3 {
				id := ids[int(script[k])%len(ids)]
				at := time.Duration(script[k+1]%60) * time.Second
				kind := script[k+2]
				up := kind&4 != 0
				toggle := func() { net.SetUp(id, up) }
				switch kind % 4 {
				case 0: // on the tick's instant, before the tick
					sim.Schedule(at, toggle)
				case 1: // half a tick after it
					sim.Schedule(at+500*time.Millisecond, toggle)
				case 2: // on the tick's instant, after the tick
					sim.Schedule(at, func() { sim.Schedule(0, toggle) })
				case 3: // a quarter tick after it
					sim.Schedule(at+250*time.Millisecond, toggle)
				}
			}
		}
		const ticks = 80
		sparse := tickWorld(n, workers, wakeTable(model()), churn, ticks)
		if tickWorld(n, workers, wakeTable(dense(model())), churn, ticks) != sparse {
			t.Fatalf("wake-table engine diverged from Mobility under a model due every tick (model %d, %d nodes, %d workers)", data[0]%4, n, workers)
		}
		if tickWorld(n, workers, denseLoop(model()), churn, ticks) != sparse {
			t.Fatalf("wake-table engine diverged from the test-side dense loop (model %d, %d nodes, %d workers)", data[0]%4, n, workers)
		}
	})
}
