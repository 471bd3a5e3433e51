package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// benchSizes are the field scales the grid is benchmarked at, including the
// n=2000 point the large-scale festival scenario (sim.T11) runs at.
var benchSizes = []int{100, 1000, 2000, 5000}

// benchField builds n lossless ad-hoc nodes over a square sized for ~8
// expected radio neighbors per node, the regime the festival scenario
// operates in.
func benchField(n int) (*Sim, *Network, []string) {
	sim := NewSim(1)
	net := NewNetwork(sim)
	rng := rand.New(rand.NewSource(1))
	class := AdHoc // range 30
	class.Loss = 0
	side := math.Sqrt(float64(n) * math.Pi * 30 * 30 / 8)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("n%d", i)
		net.AddNode(names[i], Position{X: rng.Float64() * side, Y: rng.Float64() * side}, class)
	}
	return sim, net, names
}

// jitter moves one node slightly, modelling the per-tick mobility that
// invalidates neighbor caches between queries so the benchmarks measure
// the recompute path, not cache hits.
func jitter(net *Network, id string, i int) {
	node := net.Node(id)
	net.SetPos(id, Position{X: node.Pos().X + float64(i%3-1)*0.25, Y: node.Pos().Y})
}

// broadcastLinear replays the pre-grid Broadcast: a full linear scan for
// the neighbor set and one payload copy per receiver.
func broadcastLinear(net *Network, from string, payload []byte) int {
	src := net.Node(from)
	if src == nil || !src.Up {
		return 0
	}
	neighbors := net.neighborsLinear(from)
	for _, id := range neighbors {
		net.transmit(src, net.Node(id), payload)
	}
	return len(neighbors)
}

func BenchmarkNeighbors(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, net, names := benchField(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := names[i%n]
				jitter(net, id, i)
				if net.Neighbors(id) == nil && n > 100 {
					b.Fatal("isolated query node; resize the field")
				}
			}
		})
	}
}

func BenchmarkNeighborsLinear(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, net, names := benchField(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := names[i%n]
				jitter(net, id, i)
				if net.neighborsLinear(id) == nil && n > 100 {
					b.Fatal("isolated query node; resize the field")
				}
			}
		})
	}
}

func BenchmarkBroadcast(b *testing.B) {
	payload := make([]byte, 64)
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sim, net, names := benchField(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := names[i%n]
				jitter(net, id, i)
				net.Broadcast(id, payload)
				sim.RunUntilIdle(0)
			}
		})
	}
}

func BenchmarkBroadcastLinear(b *testing.B) {
	payload := make([]byte, 64)
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sim, net, names := benchField(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := names[i%n]
				jitter(net, id, i)
				broadcastLinear(net, id, payload)
				sim.RunUntilIdle(0)
			}
		})
	}
}

func BenchmarkRoute(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, net, names := benchField(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jitter(net, names[i%n], i)
				net.Route(names[0], names[n-1])
			}
		})
	}
}

func BenchmarkRouteLinear(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, net, names := benchField(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jitter(net, names[i%n], i)
				net.routeLinear(names[0], names[n-1])
			}
		})
	}
}
