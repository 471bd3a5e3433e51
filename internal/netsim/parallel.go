package netsim

import (
	"runtime"
	"sync"
)

// This file is the parallel half of the two-phase tick pipeline.
//
// The event loop itself stays single-goroutine: handlers run serially and
// may touch anything. What goes parallel is the bulk per-tick geometry work
// that dominates wall-clock at thousands of nodes — mobility integration
// (phase 1 of a Mobility tick, see mobility.go) and neighbor-set
// recomputation after a topology change (the warm pass below). Both follow
// the same discipline:
//
//   - phase 1 is pure: workers read a topology snapshot nobody mutates and
//     write only state owned by their shard (per-node plan slots, per-node
//     caches), never the RNG;
//   - phase 2 commits mutations and performs every RNG draw serially, in
//     canonical node order, on the event-loop goroutine.
//
// Because the RNG stream and every commit happen in exactly the order the
// serial engine uses, a given seed produces bit-identical results at any
// worker count; only wall-clock changes.

// AutoWorkers returns the worker count SetWorkers resolves 0 to: the
// process's GOMAXPROCS.
func AutoWorkers() int { return runtime.GOMAXPROCS(0) }

// SetWorkers sizes the network's tick worker pool. 1 (the default) keeps
// every computation on the event-loop goroutine; values above 1 enable the
// two-phase parallel tick pipeline; 0 or negative selects GOMAXPROCS.
// Results are identical at any setting — only wall-clock changes.
func (n *Network) SetWorkers(w int) {
	if w <= 0 {
		w = AutoWorkers()
	}
	n.workers = w
}

// Workers returns the current tick worker pool size.
func (n *Network) Workers() int { return n.workers }

// runSharded splits [0,count) into one contiguous span per worker and runs
// fn on every span concurrently, returning when all spans are done. fn must
// only write state owned by its span.
func runSharded(count, workers int, fn func(lo, hi int)) {
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		fn(0, count)
		return
	}
	chunk := (count + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < count; lo += chunk {
		hi := min(lo+chunk, count)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// Warm thresholds: a parallel warm of every cache pays off only when many
// nodes will be queried at the same epoch (a beacon burst), not when a lone
// query or a partition-local BFS misses. The threshold therefore scales
// with the population so small route expansions never trigger a
// network-wide warm.
const (
	warmMissBase = 32
	warmMissDiv  = 32
)

func (n *Network) warmThreshold() int { return warmMissBase + len(n.list)/warmMissDiv }

// warmNeighborCaches fills every node's neighbor cache at the current
// epoch, sharded across the worker pool. It is purely a cache fill: each
// entry is exactly what the lazy path in neighborsOf would compute, so
// query results are unchanged at any worker count. Workers read the shared
// topology snapshot (grid cells, positions, cuts — nothing mutates during
// the fill) and write only their own nodes' cache fields.
func (n *Network) warmNeighborCaches() {
	epoch := n.epoch
	runSharded(len(n.list), n.workers, func(lo, hi int) {
		var scratch []*Node
		for _, node := range n.list[lo:hi] {
			if n.nbrEpochs[node.orderIdx] == epoch {
				continue
			}
			node.nbrCache, scratch = n.computeNeighbors(node, scratch)
			n.nbrEpochs[node.orderIdx] = epoch
		}
	})
	n.epochMisses = 0
}

// Region-sharded spatial re-indexing: the commit half of a parallel
// mobility tick batches every position change and splits the grid work by
// coarse region. A move that stays inside one region only touches that
// region's cell buckets, so whole regions shard across the pool with no
// locks — each region has exactly one owner per commit. Moves that cross a
// region boundary mutate the region directory (materialize, retire,
// counts), so they hand off to a serial pass in canonical node order.
// Either way the grid ends in a state queries cannot distinguish from
// per-node serial updates: bucket order is unspecified and every query
// sorts to insertion order before anything order-sensitive.

// regionMoveParallelMin gates locality-sharded planning (and with it the
// sharded commit): below it the per-worker scan costs more than the moves.
const regionMoveParallelMin = 256

// regionOwner assigns a region to one worker deterministically.
func regionOwner(rk regionKey, workers int) int {
	h := uint32(rk.rx)*2654435761 ^ uint32(rk.ry)*2246822519
	h ^= h >> 16
	return int(h % uint32(workers))
}

// commitMoves re-indexes every node in nodes whose position changed,
// equivalent to calling nodeMoved on each in order — which, with nil
// buckets, is exactly what it does.
//
// Non-nil buckets are the locality shards phase 1 planned under: per-owner
// lists of indices into nodes, sharded by regionOwner of each node's
// pre-move region. A same-region move cannot change its region — so it
// cannot change its owner — and the commit reuses the buckets as-is: the
// serial pass only flags which indices are same-region movers, each owner
// walks its own bucket (a worker must only ever touch its own nodes:
// addToCell rewrites node.cell), and region-crossers follow serially. The
// topology epoch advances once per moved non-infrastructure node, as the
// per-node bumps would; epoch values are only observable between ticks, so
// the batched advance is invisible to queries.
func (n *Network) commitMoves(nodes []*Node, buckets [][]int32) {
	if buckets == nil {
		for _, node := range nodes {
			n.nodeMoved(node)
		}
		return
	}
	g := n.grid
	moved := 0
	if cap(n.moveFlags) < len(nodes) {
		n.moveFlags = make([]uint8, len(nodes))
	}
	n.moveFlags = n.moveFlags[:len(nodes)]
	clear(n.moveFlags)
	n.crossers = n.crossers[:0]
	for i, node := range nodes {
		pos := node.Pos()
		if pos == node.gridPos {
			continue
		}
		node.gridPos = pos
		if node.infra {
			continue
		}
		moved++
		switch k := g.keyFor(pos); {
		case k == node.cell:
		case regionOf(k) == regionOf(node.cell):
			n.moveFlags[i] = 1
		default:
			n.crossers = append(n.crossers, node)
		}
	}
	if moved == 0 {
		return
	}
	n.epoch += uint64(moved)
	n.epochMisses = 0
	var wg sync.WaitGroup
	wg.Add(len(buckets))
	for _, bucket := range buckets {
		go func(idxs []int32) {
			defer wg.Done()
			for _, i := range idxs {
				if n.moveFlags[i] == 0 {
					continue
				}
				node := nodes[i]
				reg := g.regions[regionOf(node.cell)]
				reg.removeFromCell(node)
				reg.addToCell(node, g.keyFor(node.gridPos))
			}
		}(bucket)
	}
	wg.Wait()
	// Boundary crossings last, serially, in canonical node order: they
	// mutate the shared region directory.
	for _, node := range n.crossers {
		g.update(node)
	}
}
