package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// denseModel re-exposes a model with a NextDue that is due every tick: under
// it Mobility steps every up member on every tick, which is exactly the
// dense per-node loop the wake table skips. The oracle tests run the same
// seeded world under the real model and under the dense wrapper and demand
// bit-identical results.
type denseModel struct{ MobilityModel }

func (denseModel) NextDue(_ *Node, now time.Duration) (time.Duration, bool) { return now, true }

// densePlanner is denseModel for a Planner, so the dense world keeps the
// two-phase tick the real model runs on more than one worker.
type densePlanner struct{ Planner }

func (densePlanner) NextDue(_ *Node, now time.Duration) (time.Duration, bool) { return now, true }

// dense wraps m so Mobility steps each of its up members every tick.
func dense(m MobilityModel) MobilityModel {
	if p, ok := m.(Planner); ok {
		return densePlanner{p}
	}
	return denseModel{m}
}

// engine starts a mobility engine over the members ids of net, ticking
// once a second.
type engine func(net *Network, ids []string)

// wakeTable is the production engine: Mobility under model.
func wakeTable(model MobilityModel) engine {
	return func(net *Network, ids []string) { net.StartMobility(model, time.Second, ids...) }
}

// denseLoop is the engine before sparse ticking, rebuilt test-side as an
// oracle that shares no code with Mobility: one timer that steps every up
// member every tick, in member order, and never asks NextDue. A Mobility
// bug that the dense wrapper would share (stepping a down member, dropping
// one) still diverges from it.
func denseLoop(model MobilityModel) engine {
	return func(net *Network, ids []string) {
		nodes := make([]*Node, len(ids))
		for i, id := range ids {
			nodes[i] = net.Node(id)
			model.Init(net, nodes[i])
		}
		var t *timer
		t = net.sim.newTimer(func() {
			for _, node := range nodes {
				if node.Up {
					model.Step(net, node, time.Second)
					net.nodeMoved(node)
				}
			}
			t.Reset(time.Second)
		})
		t.Reset(time.Second)
	}
}

// tickWorld builds a seeded n-node world, starts eng on it, lets churn
// schedule down and up events, runs it for ticks seconds and returns the
// full state fingerprint plus one extra RNG draw (so a world that drew a
// different number of RNG values cannot fingerprint equal).
func tickWorld(n, workers int, eng engine, churn func(*Sim, *Network, []string), ticks int) string {
	sim := NewSim(77)
	net := NewNetwork(sim)
	net.SetWorkers(workers)
	rng := rand.New(rand.NewSource(77))
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%04d", i)
		net.AddNode(ids[i], Position{X: rng.Float64() * 400, Y: rng.Float64() * 400}, AdHoc)
	}
	eng(net, ids)
	if churn != nil {
		churn(sim, net, ids)
	}
	sim.Run(time.Duration(ticks) * time.Second)
	return crowdFingerprint(net) + fmt.Sprint(sim.Rand().Int63())
}

// rejoinChurn is the oracle's churn script. Every 7th node crashes on a
// tick's instant and rejoins 40s later — long enough that a waypoint pause
// expires while it is down, so an engine that forgets a member that was
// down when its wake passed would never move it again. Every 11th node
// (from the 3rd) crashes and rejoins half a second after a tick, once for
// 30s and once for 2s, so some rejoins land inside a pause and some after.
func rejoinChurn(sim *Sim, net *Network, ids []string) {
	for i := 0; i < len(ids); i += 7 {
		id := ids[i]
		down := time.Duration(10+i%13) * time.Second
		sim.Schedule(down, func() { net.SetUp(id, false) })
		sim.Schedule(down+40*time.Second, func() { net.SetUp(id, true) })
	}
	for i := 3; i < len(ids); i += 11 {
		id := ids[i]
		down := time.Duration(20+i%17)*time.Second + 500*time.Millisecond
		sim.Schedule(down, func() { net.SetUp(id, false) })
		sim.Schedule(down+30*time.Second, func() { net.SetUp(id, true) })
		sim.Schedule(down+60*time.Second, func() { net.SetUp(id, false) })
		sim.Schedule(down+62*time.Second, func() { net.SetUp(id, true) })
	}
}

// TestTimeWheelMatchesDenseTickOracle is the engine-level differential: 1k
// ticks of every mobility model under the wake table must be bit-identical
// — positions, epochs, neighbor sets and the RNG stream — to the dense
// per-node loop, at both worker counts, with and without churn crossing the
// quiescent windows. The dense loop is run twice: as Mobility under a model
// that is due every tick, and as the test-side denseLoop.
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
				var churn func(*Sim, *Network, []string)
				if tc.churn {
					churn = rejoinChurn
				}
				sparse := tickWorld(200, workers, wakeTable(tc.model()), churn, 1000)
				oracle := tickWorld(200, workers, wakeTable(dense(tc.model())), churn, 1000)
				if sparse != oracle {
					t.Fatal("wake-table engine diverged from dense per-node oracle (fingerprints differ)")
				}
				if loop := tickWorld(200, workers, denseLoop(tc.model()), churn, 1000); sparse != loop {
					t.Fatal("wake-table engine diverged from the test-side dense loop (fingerprints differ)")
				}
			})
		}
	}
}

// TestWheelActuallyParks is the white-box companion: with a long pause most
// of a waypoint crowd must have its wake beyond the next tick, and a Static
// member must be parked for good — otherwise the oracle test above is
// vacuously comparing dense against dense.
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
	later := 0
	for _, w := range m.wake {
		if w > m.tickIdx+1 {
			later++
		}
	}
	if later <= len(ids)/2 {
		t.Fatalf("%d/%d nodes wake after the next tick; fast-arrival long-pause crowd should be mostly parked", later, len(ids))
	}

	simS := NewSim(4)
	netS := NewNetwork(simS)
	netS.AddNode("s", Position{}, AdHoc)
	ms := netS.StartMobility(Static{}, time.Second, "s")
	simS.Run(10 * time.Second)
	if got := ms.wake[0]; got != parked {
		t.Fatalf("static node wakes at tick %d, want parked", got)
	}
}

// TestRejoinWhileQuiescent pins the rejoin path: a node that is down when
// its wake passes is not stepped and keeps that wake, so it is stepped on
// the first tick at which it is up again. An engine that re-armed or
// dropped it there would leave it frozen after rejoining, in a way only a
// position trace would reveal. The churn differential above proves
// equivalence with the dense loop; this test pins the mechanism.
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
	sim.RunFor(20 * time.Second) // the pause-end wake passes while down
	wake := m.wake[0]
	if wake > m.tickIdx {
		t.Fatalf("down node's wake %d lies after tick %d after its pause ended, want passed (still due)", wake, m.tickIdx)
	}
	pos := node.Pos()
	sim.RunFor(5 * time.Second)
	if node.Pos() != pos || m.wake[0] != wake {
		t.Fatalf("down node with a passed wake moved (%v -> %v) or was re-armed (%d -> %d)", pos, node.Pos(), wake, m.wake[0])
	}
	net.SetUp("a", true)
	if got := m.wake[0]; got > m.tickIdx+1 {
		t.Fatalf("rejoined node wakes at tick %d, want due on the next tick %d", got, m.tickIdx+1)
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
