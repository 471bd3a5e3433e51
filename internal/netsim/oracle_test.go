package netsim

import (
	"container/heap"
	"math/rand"
	"time"
)

// This file holds the reference implementations the production engines are
// tested against. They are compiled into the test binary only: a reader of
// the package meets one event queue and one neighbor search.

// --- binary-heap event queue ---

// heapQueue is the original binary-heap queue behind the eventQueue
// interface, the wheel's differential oracle. Like the wheel it only
// orders; Sim.front decides liveness for both.
type heapQueue struct {
	h eventHeap
}

func (q *heapQueue) push(e *event) { heap.Push(&q.h, e) }

func (q *heapQueue) peek() *event {
	if q.h.Len() == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) pop() *event {
	if q.h.Len() == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}

func (q *heapQueue) len() int { return q.h.Len() }

// newSimHeap returns a simulator running on the binary-heap event queue:
// the timing wheel's differential oracle. A given seed produces
// bit-identical runs on either engine.
func newSimHeap(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed)), seed: seed, queue: &heapQueue{}}
}

// refTimer is a timer spelled as a fresh one-shot per Reset: Reset stops
// the previous one-shot and arms a new one, Stop stops it. It takes one
// sequence number per Reset, as Sim's timer does, so the two fire at the
// same instants in the same (at, seq) order; FuzzTimingWheelScheduler runs
// it on the heap oracle against Sim's re-keying timer on the wheel. Each
// one-shot files its own event and is never re-keyed, so the re-keying
// paths of the timer under test are compared against a spelling that has
// none.
type refTimer struct {
	s   *Sim
	fn  func()
	cur *timer
}

func (t *refTimer) Reset(d time.Duration) {
	t.Stop()
	t.cur = t.s.newTimer(t.fn)
	t.cur.Reset(d)
}

func (t *refTimer) Stop() {
	if t.cur != nil {
		t.cur.Stop()
		t.cur = nil
	}
}

// --- linear-scan oracles ---
//
// The pre-grid implementations, kept verbatim as correctness oracles: the
// property tests (grid_test.go, linkstate_test.go, mobility_test.go,
// parallel_test.go) require the grid-backed queries to agree with them
// exactly (same sets, same order) on randomized topologies, and the
// benchmarks measure the grid against them.

// connectedLinear is the original Connected.
func (n *Network) connectedLinear(a, b string) bool {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil || !na.Up || !nb.Up || a == b {
		return false
	}
	if n.cuts[linkKey(a, b)] {
		return false
	}
	if len(n.parts) > 0 && n.partitionedPair(na, nb) {
		return false
	}
	if na.Class.Infrastructure && nb.Class.Infrastructure {
		return true
	}
	if na.Class.Infrastructure != nb.Class.Infrastructure {
		return true
	}
	d := na.Pos().Dist(nb.Pos())
	return d <= na.EffectiveRange() && d <= nb.EffectiveRange()
}

// neighborsLinear is the original full-scan Neighbors.
func (n *Network) neighborsLinear(id string) []string {
	var out []string
	for _, node := range n.list {
		if other := node.ID; other != id && n.connectedLinear(id, other) {
			out = append(out, other)
		}
	}
	return out
}

// routeLinear is the original BFS over the full node list.
func (n *Network) routeLinear(a, b string) []string {
	if a == b {
		return []string{a}
	}
	if n.nodes[a] == nil || n.nodes[b] == nil {
		return nil
	}
	prev := map[string]string{a: a}
	queue := []string{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, node := range n.list {
			next := node.ID
			if _, seen := prev[next]; seen || !n.connectedLinear(cur, next) {
				continue
			}
			prev[next] = cur
			if next == b {
				var path []string
				for at := b; ; at = prev[at] {
					path = append([]string{at}, path...)
					if at == a {
						return path
					}
				}
			}
			queue = append(queue, next)
		}
	}
	return nil
}

// --- per-receiver broadcast ---

// broadcastPerReceiver is Broadcast as it was before receivers shared
// events: chargeHop, then one scheduled delivery per surviving neighbour.
// TestBroadcastRunsMatchPerReceiverOracle and FuzzBroadcastRuns require the
// run-folding Broadcast to be indistinguishable from it.
func (n *Network) broadcastPerReceiver(from string, payload []byte) int {
	src := n.nodes[from]
	if src == nil || !src.Up || src.exhausted() {
		return 0
	}
	neighbors := n.neighborsOf(src)
	if len(neighbors) == 0 {
		return 0
	}
	data := make([]byte, len(payload))
	copy(data, payload)
	for _, dst := range neighbors {
		air, jitter, ok := n.chargeHop(src, dst, len(data))
		if !ok {
			continue
		}
		n.sim.scheduleDelivery(air+jitter, src, dst, data, air, false)
	}
	return len(neighbors)
}
