package netsim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkStepParallel measures the two-phase tick pipeline: one full
// simulated tick — a mobility step over every node plus a field-wide
// neighbor burst (what a beacon round costs the topology layer) — at crowd
// sizes from 1k to 10k nodes and worker counts from 1 (the serial engine)
// to 8. The speedup curve of interest is workers=N vs workers=1 at fixed n;
// results are bit-identical across the whole matrix, only wall-clock moves.
// The n=100000 rows are the metropolis scale the hierarchical grid and
// sparse ticking exist for: a six-figure crowd where most of the field is
// empty regions and, between dwell expiries, most nodes are not due.
// The n=1000000 rows are the megacity scale that adds the timing-wheel
// scheduler and locality-sharded planning; they build a seven-figure world
// per sub-benchmark, so -short skips them.
func BenchmarkStepParallel(b *testing.B) {
	for _, n := range []int{1000, 2500, 5000, 10000, 100000, 1000000} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				if n >= 1000000 && testing.Short() {
					b.Skip("1M-node tick benchmark in -short mode")
				}
				sim, net := buildCrowd(1, n, w, 0)
				ids := net.Nodes()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sim.RunFor(time.Second) // fires one mobility tick
					for _, id := range ids {
						_ = net.Neighbors(id)
					}
				}
			})
		}
	}
}
