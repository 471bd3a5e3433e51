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
