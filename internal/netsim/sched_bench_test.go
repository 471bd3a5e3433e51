package netsim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkSchedulerArm measures the timing-wheel event queue on the
// beacon-shaped load it exists for: n self-re-arming timers on a shared 30s
// cadence with staggered phases, so every RunFor window fires n callbacks
// and pushes n re-arms at O(1) per arm and amortised-constant cascades.
// The n=1000000 row is the megacity scale (skipped in -short).
func BenchmarkSchedulerArm(b *testing.B) {
	const ivl = 30 * time.Second
	for _, n := range []int{1000, 100000, 1000000} {
		b.Run(fmt.Sprintf("wheel/n%d", n), func(b *testing.B) {
			if n >= 1000000 && testing.Short() {
				b.Skip("1M-timer benchmark in -short mode")
			}
			s := NewSim(1)
			fired := 0
			var rearm func()
			rearm = func() {
				fired++
				s.After(ivl, rearm)
			}
			for i := 0; i < n; i++ {
				// Stagger initial phases so firings spread across the
				// interval instead of landing on one instant.
				s.After(time.Duration(i%1000)*ivl/1000, rearm)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RunFor(ivl)
			}
			b.StopTimer()
			if fired == 0 {
				b.Fatal("no timers fired")
			}
		})
	}
}

// BenchmarkTimerRearm measures the request-timer cycle: a 10 s timeout
// armed for a request, stopped by its reply half a millisecond later, and
// re-armed by the next request half a millisecond after that, beside a 2 ms
// ticker that keeps a live event due first, as a busy world does (see
// TestTimerRearmHoldsOneEvent). The timer keeps its one queued event and
// re-keys it, so a warm cycle allocates nothing however many cycles fit
// inside one timeout.
func BenchmarkTimerRearm(b *testing.B) {
	s := NewSim(1)
	var tick interface {
		Reset(d time.Duration)
		Stop()
	}
	tick = s.NewTimer(func() { tick.Reset(2 * time.Millisecond) })
	tick.Reset(2 * time.Millisecond)
	tm := s.NewTimer(func() { b.Fatal("a stopped request timer fired") })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Reset(10 * time.Second)
		s.RunFor(500 * time.Microsecond)
		tm.Stop()
		s.RunFor(500 * time.Microsecond)
	}
}

// BenchmarkBroadcastFanout measures one broadcast end to end — charge k
// hops, arm, pop, deliver to k no-op handlers — at the fan-outs a beacon
// sees. With jitter off all k receivers share one instant and ride one
// event; with jitter on (uniform 0..3 ticks) the burst splits into runs of
// whatever the draws leave adjacent, the blackout shape.
func BenchmarkBroadcastFanout(b *testing.B) {
	payload := make([]byte, 64)
	for _, k := range []int{1, 8, 32} {
		for _, jitter := range []bool{false, true} {
			b.Run(fmt.Sprintf("k%d/jitter=%v", k, jitter), func(b *testing.B) {
				s := NewSim(1)
				net := NewNetwork(s)
				class := AdHoc
				class.Loss = 0
				net.AddNode("c", Position{}, class)
				for i := 0; i < k; i++ {
					id := fmt.Sprintf("r%d", i)
					net.AddNode(id, Position{X: float64(i%6) + 1, Y: float64(i / 6)}, class)
					net.SetHandler(id, func(string, []byte) {})
				}
				if jitter {
					net.ImpairAll(Impairment{JitterTicks: 3, JitterTick: time.Millisecond})
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if net.Broadcast("c", payload) != k {
						b.Fatal("lost a neighbour")
					}
					s.RunUntilIdle(0)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/recv")
			})
		}
	}
}

// BenchmarkWheelFarEvents measures a queue that is sparse in time: each op
// files events 2 and 40 virtual days out and drains them, so the wheel
// crosses 38 empty days between them (see TestWheelSkipsEmptyRevolutions).
func BenchmarkWheelFarEvents(b *testing.B) {
	const day = 24 * time.Hour
	s := NewSim(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(2*day, fn)
		s.Schedule(40*day, fn)
		s.RunUntilIdle(0)
	}
}
