package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// densePlanner re-exposes a Planner with its Quiescer hidden: under it the
// wheel arms every member every tick, which is exactly the pre-wheel dense
// per-node loop. The oracle tests run the same seeded world under the real
// model and under the dense wrapper and demand bit-identical results.
type densePlanner struct{ p Planner }

func (d densePlanner) Init(n *Network, node *Node)                   { d.p.Init(n, node) }
func (d densePlanner) Step(n *Network, node *Node, dt time.Duration) { d.p.Step(n, node, dt) }
func (d densePlanner) PlanStep(node *Node, now, dt time.Duration) (Position, bool, bool) {
	return d.p.PlanStep(node, now, dt)
}
func (d densePlanner) CommitArrival(n *Network, node *Node) { d.p.CommitArrival(n, node) }

// denseModel is densePlanner for models without the Planner split.
type denseModel struct{ m MobilityModel }

func (d denseModel) Init(n *Network, node *Node)                   { d.m.Init(n, node) }
func (d denseModel) Step(n *Network, node *Node, dt time.Duration) { d.m.Step(n, node, dt) }

// hideQuiescer wraps m so Mobility sees no Quiescer (dense ticking).
func hideQuiescer(m MobilityModel) MobilityModel {
	if p, ok := m.(Planner); ok {
		return densePlanner{p}
	}
	return denseModel{m}
}

// wheelWorld builds a seeded n-node world under model, optionally with a
// deterministic churn script (nodes toggled down and back up on a fixed
// schedule, crossing their quiescent windows), runs it for ticks seconds
// and returns the full state fingerprint plus one extra RNG draw (so a
// world that drew a different number of RNG values cannot fingerprint
// equal).
func wheelWorld(n, workers int, model MobilityModel, churn bool, ticks int) string {
	sim := NewSim(77)
	net := NewNetwork(sim)
	net.SetWorkers(workers)
	rng := rand.New(rand.NewSource(77))
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%04d", i)
		net.AddNode(ids[i], Position{X: rng.Float64() * 400, Y: rng.Float64() * 400}, AdHoc)
	}
	net.StartMobility(model, time.Second, ids...)
	if churn {
		// Every 7th node crashes at a staggered time and rejoins 40s later —
		// long enough that a waypoint pause expires while it is down, so a
		// sparse engine that forgets parked nodes would never move it again.
		for i := 0; i < n; i += 7 {
			id := ids[i]
			down := time.Duration(10+i%13) * time.Second
			sim.Schedule(down, func() { net.SetUp(id, false) })
			sim.Schedule(down+40*time.Second, func() { net.SetUp(id, true) })
		}
	}
	sim.Run(time.Duration(ticks) * time.Second)
	return crowdFingerprint(net) + fmt.Sprint(sim.Rand().Int63())
}

// TestTimeWheelMatchesDenseTickOracle is the engine-level differential: 1k
// ticks of every mobility model under the sparse time-wheel must be
// bit-identical — positions, epochs, neighbor sets and the RNG stream — to
// the dense per-node loop the wheel replaced, at both worker counts, with
// and without churn crossing the quiescent windows.
func TestTimeWheelMatchesDenseTickOracle(t *testing.T) {
	waypoint := func() MobilityModel {
		return &RandomWaypoint{FieldW: 400, FieldH: 400, SpeedMin: 1, SpeedMax: 5, Pause: 9 * time.Second}
	}
	waypath := func() MobilityModel {
		return &Waypath{Speed: 3, Points: []Position{{X: 50, Y: 50}, {X: 300, Y: 80}, {X: 120, Y: 350}}}
	}
	static := func() MobilityModel { return Static{} }
	cases := []struct {
		name  string
		model func() MobilityModel
		churn bool
	}{
		{"waypoint", waypoint, false},
		{"waypoint_churn", waypoint, true},
		{"static", static, false},
		{"waypath", waypath, false},
		{"waypath_churn", waypath, true},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s_w%d", tc.name, workers), func(t *testing.T) {
				sparse := wheelWorld(200, workers, tc.model(), tc.churn, 1000)
				dense := wheelWorld(200, workers, hideQuiescer(tc.model()), tc.churn, 1000)
				if sparse != dense {
					t.Fatal("wheel engine diverged from dense per-node oracle (fingerprints differ)")
				}
			})
		}
	}
}

// TestWheelActuallyParks is the white-box companion: with a long pause most
// of a waypoint crowd must be off the due set on a typical tick, and a
// Static population must never occupy the wheel at all — otherwise the
// oracle test above is vacuously comparing dense against dense.
func TestWheelActuallyParks(t *testing.T) {
	sim := NewSim(3)
	net := NewNetwork(sim)
	ids := make([]string, 300)
	rng := rand.New(rand.NewSource(3))
	for i := range ids {
		ids[i] = fmt.Sprintf("n%03d", i)
		net.AddNode(ids[i], Position{X: rng.Float64() * 200, Y: rng.Float64() * 200}, AdHoc)
	}
	m := net.StartMobility(&RandomWaypoint{
		FieldW: 200, FieldH: 200, SpeedMin: 10, SpeedMax: 20, Pause: 60 * time.Second,
	}, time.Second, ids...)
	sim.Run(120 * time.Second)
	due := m.wheel.collect(m.tickIdx+1, nil)
	if len(due) >= len(ids)/2 {
		t.Fatalf("%d/%d nodes due next tick; fast-arrival long-pause crowd should be mostly parked", len(due), len(ids))
	}

	simS := NewSim(4)
	netS := NewNetwork(simS)
	netS.AddNode("s", Position{}, AdHoc)
	ms := netS.StartMobility(Static{}, time.Second, "s")
	simS.Run(10 * time.Second)
	if got := ms.wheel.armedAt(0); got != wheelIdle {
		t.Fatalf("static node armed at slot %d, want parked", got)
	}
}

// TestRejoinWhileQuiescent pins the latent bug class the waker registry
// fixes: a node that is down when its wheel slot fires is skipped and
// parked, so without an explicit wake on SetUp(up=true) it would sleep
// forever after rejoining — silently frozen in a way only a position trace
// would reveal. The dense loop never had the bug (it polled every node
// every tick), so the churn differential above proves equivalence; this
// test additionally pins the mechanism.
func TestRejoinWhileQuiescent(t *testing.T) {
	sim := NewSim(9)
	net := NewNetwork(sim)
	net.AddNode("a", Position{X: 1, Y: 1}, AdHoc)
	// Tiny field + high speed: the node reaches its waypoint within a few
	// ticks, then pauses 10s.
	m := net.StartMobility(&RandomWaypoint{
		FieldW: 10, FieldH: 10, SpeedMin: 50, SpeedMax: 50, Pause: 10 * time.Second,
	}, time.Second, "a")
	sim.Run(2 * time.Second) // arrived (travel 50m/tick across a 10m field) and pausing
	node := net.Node("a")
	if sim.Now() >= node.pauseTo {
		t.Fatalf("precondition: node should be pausing (now %v, pauseTo %v)", sim.Now(), node.pauseTo)
	}
	net.SetUp("a", false)
	sim.RunFor(20 * time.Second) // the pause-end wake fires while down
	if got := m.wheel.armedAt(0); got != wheelIdle {
		t.Fatalf("down node still armed at slot %d after its wake fired, want parked", got)
	}
	pos := node.Pos()
	net.SetUp("a", true)
	if got := m.wheel.armedAt(0); got == wheelIdle {
		t.Fatal("rejoin did not re-arm the parked node on the wheel")
	}
	sim.RunFor(5 * time.Second)
	if node.Pos() == pos {
		t.Fatal("rejoined node never moved again: rejoin-while-quiescent regression")
	}
}

// flatGrid is the retired single-level uniform grid, rebuilt test-side as
// the oracle for the two-level hierarchy: same cell size, same cell-key
// math, same whole-cell ring queries, one flat hash map.
type flatGrid struct {
	cellSize float64
	cells    map[cellKey][]*Node
}

func flatFromNetwork(n *Network) *flatGrid {
	f := &flatGrid{cellSize: n.grid.cellSize, cells: make(map[cellKey][]*Node)}
	for _, node := range n.list {
		if node.infra {
			continue
		}
		k := f.keyFor(node.gridPos)
		f.cells[k] = append(f.cells[k], node)
	}
	return f
}

func (f *flatGrid) keyFor(p Position) cellKey {
	return cellKey{cx: int32(mathFloorDiv(p.X, f.cellSize)), cy: int32(mathFloorDiv(p.Y, f.cellSize))}
}

func (f *flatGrid) within(center Position, radius float64) []*Node {
	if radius < 0 {
		radius = 0
	}
	minK := f.keyFor(Position{X: center.X - radius, Y: center.Y - radius})
	maxK := f.keyFor(Position{X: center.X + radius, Y: center.Y + radius})
	var out []*Node
	for cy := minK.cy; cy <= maxK.cy; cy++ {
		for cx := minK.cx; cx <= maxK.cx; cx++ {
			out = append(out, f.cells[cellKey{cx, cy}]...)
		}
	}
	return out
}

// TestHierarchyMatchesFlatGridOracle drives a mixed world through mobility,
// link cuts, partitions and up/down churn, and at every checkpoint checks
// (a) the hierarchical ring query returns exactly the flat grid's candidate
// set and (b) Neighbors/Connected/Route agree with the linear-scan oracles
// — so the region layer is proven invisible to every query path.
func TestHierarchyMatchesFlatGridOracle(t *testing.T) {
	sim := NewSim(21)
	net := NewNetwork(sim)
	rng := rand.New(rand.NewSource(21))
	ids := make([]string, 250)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%03d", i)
		// Offset field: negative coordinates exercise the arithmetic-shift
		// region math.
		net.AddNode(ids[i], Position{X: rng.Float64()*600 - 300, Y: rng.Float64()*600 - 300}, AdHoc)
	}
	net.StartMobility(&RandomWaypoint{
		FieldW: 600, FieldH: 600, SpeedMin: 5, SpeedMax: 30, Pause: 4 * time.Second,
	}, time.Second, ids...)

	checkpoint := func(round int) {
		flat := flatFromNetwork(net)
		for probe := 0; probe < 40; probe++ {
			center := Position{X: rng.Float64()*700 - 350, Y: rng.Float64()*700 - 350}
			radius := rng.Float64() * 120
			want := map[*Node]bool{}
			for _, nd := range flat.within(center, radius) {
				want[nd] = true
			}
			got := net.grid.appendWithin(center, radius, nil)
			if len(got) != len(want) {
				t.Fatalf("round %d: hierarchy ring returned %d candidates, flat grid %d (center %v r %.1f)",
					round, len(got), len(want), center, radius)
			}
			for _, nd := range got {
				if !want[nd] {
					t.Fatalf("round %d: hierarchy ring returned %s outside the flat grid's candidate set", round, nd.ID)
				}
				delete(want, nd) // also catches duplicates
			}
		}
		for probe := 0; probe < 25; probe++ {
			a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if got, want := net.Connected(a, b), net.connectedLinear(a, b); got != want {
				t.Fatalf("round %d: Connected(%s,%s)=%v, linear oracle %v", round, a, b, got, want)
			}
			if got, want := fmt.Sprint(net.Neighbors(a)), fmt.Sprint(net.neighborsLinear(a)); got != want {
				t.Fatalf("round %d: Neighbors(%s)=%v, linear oracle %v", round, a, got, want)
			}
			if got, want := fmt.Sprint(net.Route(a, b)), fmt.Sprint(net.routeLinear(a, b)); got != want {
				t.Fatalf("round %d: Route(%s,%s)=%v, linear oracle %v", round, a, b, got, want)
			}
		}
	}

	for round := 0; round < 12; round++ {
		sim.RunFor(5 * time.Second)
		switch round % 4 {
		case 0: // administrative cuts
			for i := 0; i < 10; i++ {
				net.CutLink(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
			}
		case 1: // churn: some nodes crash, earlier casualties rejoin
			for i := 0; i < 15; i++ {
				id := ids[rng.Intn(len(ids))]
				net.SetUp(id, !net.Node(id).Up)
			}
		case 2: // partition a random third of the field
			for i := 0; i < len(ids); i += 3 {
				net.SetPartitionGroup(ids[i], rng.Intn(2))
			}
		case 3: // heal everything
			for _, id := range ids {
				net.SetPartitionGroup(id, 0)
				net.SetUp(id, true)
			}
			for i := 0; i < 10; i++ {
				net.RestoreLink(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
			}
		}
		checkpoint(round)
	}
}

// mathFloorDiv mirrors grid.keyFor's floor division without importing math
// twice in this file's helpers.
func mathFloorDiv(v, cell float64) int64 {
	q := v / cell
	i := int64(q)
	if q < 0 && float64(i) != q {
		i--
	}
	return i
}

// Test-only timeWheel accessors: production code only arms and collects.

// armedAt returns member i's wake slot, or wheelIdle when parked.
func (w *timeWheel) armedAt(i int32) int64 {
	w.ensure(i)
	return w.armed[i]
}

// cancel parks member i. Lazy: any slot entries it holds are skipped when
// their slot is collected.
func (w *timeWheel) cancel(i int32) {
	w.ensure(i)
	w.armed[i] = wheelIdle
}
