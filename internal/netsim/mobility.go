package netsim

import (
	"math"
	"sync"
	"time"
)

// MobilityModel updates node positions each tick. Implementations keep any
// per-node state on the Node's waypoint fields or internally.
type MobilityModel interface {
	// Init is called once per node before the first step.
	Init(n *Network, node *Node)
	// Step advances node by dt of virtual time.
	Step(n *Network, node *Node, dt time.Duration)
	// NextDue reports when node next needs a Step, letting Mobility skip it
	// until then. The contract: between now and the returned instant, Step
	// must be a pure no-op for the node (no position change, no RNG draw),
	// so skipping those calls outright is unobservable. A model that needs
	// every tick returns now; ok=false parks the node for good.
	NextDue(node *Node, now time.Duration) (at time.Duration, ok bool)
}

// Planner is an optional MobilityModel extension that splits Step into a
// pure planning half and an arrival commit, enabling the deterministic
// two-phase parallel tick (see parallel.go). A model implementing Planner
// must keep Step equivalent to: apply PlanStep's position, then run
// CommitArrival when it reports arrival.
type Planner interface {
	MobilityModel
	// PlanStep computes node's position after dt of movement. It runs on a
	// worker goroutine: it must not mutate the node, the network or the
	// RNG. moved reports a position to commit; arrived reports that the
	// node reached its waypoint and CommitArrival must run for it during
	// the serial commit phase.
	PlanStep(node *Node, now, dt time.Duration) (next Position, moved, arrived bool)
	// CommitArrival performs the model's arrival-time state changes and
	// RNG draws. It runs on the event-loop goroutine, in the same node
	// order the serial engine steps, so the RNG stream is identical at any
	// worker count.
	CommitArrival(n *Network, node *Node)
}

// RandomWaypoint is the classic ad-hoc mobility model: each node picks a
// uniform random destination in the field, moves toward it at a uniform
// random speed, pauses, and repeats.
type RandomWaypoint struct {
	// FieldW and FieldH bound the rectangular field in metres.
	FieldW, FieldH float64
	// SpeedMin and SpeedMax bound the uniform speed draw in metres/second.
	SpeedMin, SpeedMax float64
	// Pause is the dwell time at each waypoint.
	Pause time.Duration
}

var _ Planner = (*RandomWaypoint)(nil)

// Init picks the node's first waypoint.
func (m *RandomWaypoint) Init(n *Network, node *Node) {
	m.pick(n, node)
}

func (m *RandomWaypoint) pick(n *Network, node *Node) {
	rng := n.Sim().Rand()
	node.target = Position{X: rng.Float64() * m.FieldW, Y: rng.Float64() * m.FieldH}
	node.speed = m.SpeedMin + rng.Float64()*(m.SpeedMax-m.SpeedMin)
}

// Step moves the node toward its waypoint, pausing on arrival. It is
// exactly PlanStep + commit, so the serial and parallel engines share one
// integration formula and produce bit-identical trajectories.
func (m *RandomWaypoint) Step(n *Network, node *Node, dt time.Duration) {
	next, moved, arrived := m.PlanStep(node, n.Sim().Now(), dt)
	if moved {
		node.setPos(next)
	}
	if arrived {
		m.CommitArrival(n, node)
	}
}

// PlanStep implements Planner: pure integration toward the current
// waypoint, no mutation, no RNG.
func (m *RandomWaypoint) PlanStep(node *Node, now, dt time.Duration) (Position, bool, bool) {
	if now < node.pauseTo {
		return Position{}, false, false
	}
	pos := node.Pos()
	dist := pos.Dist(node.target)
	travel := node.speed * dt.Seconds()
	if travel >= dist {
		return node.target, true, true
	}
	frac := travel / dist
	next := pos
	next.X += (node.target.X - next.X) * frac
	next.Y += (node.target.Y - next.Y) * frac
	return next, true, false
}

// CommitArrival implements Planner: start the pause and draw the next
// waypoint and speed from the simulator RNG.
func (m *RandomWaypoint) CommitArrival(n *Network, node *Node) {
	node.pauseTo = n.Sim().Now() + m.Pause
	m.pick(n, node)
}

// NextDue implements MobilityModel: a pausing node next needs a step when its
// dwell ends (PlanStep is a guaranteed no-op before pauseTo); a moving node
// needs every tick.
func (m *RandomWaypoint) NextDue(node *Node, now time.Duration) (time.Duration, bool) {
	if now < node.pauseTo {
		return node.pauseTo, true
	}
	return now, true
}

// Static is a mobility model that never moves nodes. Useful for pinning
// infrastructure nodes while others roam.
type Static struct{}

var _ MobilityModel = Static{}

// Init implements MobilityModel.
func (Static) Init(*Network, *Node) {}

// Step implements MobilityModel.
func (Static) Step(*Network, *Node, time.Duration) {}

// NextDue implements MobilityModel: static nodes are permanently quiescent.
func (Static) NextDue(*Node, time.Duration) (time.Duration, bool) { return 0, false }

// Waypath moves a node along a fixed sequence of positions at a constant
// speed, then stops. It models scripted walks such as a user approaching a
// cinema.
type Waypath struct {
	Points []Position
	Speed  float64

	next map[string]int
}

var _ MobilityModel = (*Waypath)(nil)

// Init implements MobilityModel.
func (m *Waypath) Init(n *Network, node *Node) {
	if m.next == nil {
		m.next = make(map[string]int)
	}
	m.next[node.ID] = 0
}

// Step implements MobilityModel.
func (m *Waypath) Step(n *Network, node *Node, dt time.Duration) {
	i := m.next[node.ID]
	if i >= len(m.Points) {
		return
	}
	target := m.Points[i]
	pos := node.Pos()
	dist := pos.Dist(target)
	travel := m.Speed * dt.Seconds()
	for travel >= dist {
		pos = target
		travel -= dist
		i++
		m.next[node.ID] = i
		if i >= len(m.Points) {
			node.setPos(pos)
			return
		}
		target = m.Points[i]
		dist = pos.Dist(target)
	}
	if dist > 0 {
		frac := travel / dist
		pos.X += (target.X - pos.X) * frac
		pos.Y += (target.Y - pos.Y) * frac
	}
	node.setPos(pos)
}

// NextDue implements MobilityModel: a node still walking its path moves every
// tick; one that exhausted it parks forever.
func (m *Waypath) NextDue(node *Node, now time.Duration) (time.Duration, bool) {
	if m.next[node.ID] >= len(m.Points) {
		return 0, false
	}
	return now, true
}

// parked is the wake of a member whose model said it never needs another
// Step; no tick index reaches it.
const parked int64 = math.MaxInt64

// Mobility attaches a model to a set of nodes and advances them on a fixed
// tick until stopped. Each member has one wake word, the tick at which its
// model next needs a Step; a tick reads the words in member order and steps
// the members that are due and up. A member paused at a waypoint or at the
// end of its path costs one compare per tick, and a down member keeps its
// passed wake, so it is stepped on the first tick at which it is up again.
// Member order (the StartMobility argument order) is the order a dense loop
// visits, so positions and the RNG stream are bit-identical to stepping
// every member every tick, at any worker count.
type Mobility struct {
	net     *Network
	model   MobilityModel
	planner Planner // model's two-phase half, nil when not implemented
	tick    time.Duration
	timer   *timer        // the tick, re-armed from its own callback
	start   time.Duration // virtual time of StartMobility; tick k fires at start + k*tick
	tickIdx int64         // index of the last fired tick

	nodes []*Node // members in argument order — the canonical step order
	wake  []int64 // per member: the tick at which it is next due, or parked

	// per-tick buffers, reused across ticks.
	due      []int32 // indices of this tick's members that are due and up
	resolved []*Node // the same members, for the two-phase tick
	plans    []stepPlan
	// planBuckets shards the resolved due set by grid-region owner for
	// locality-sharded planning: one bucket per worker, each holding indices
	// into resolved. The same buckets feed commitMoves so the commit never
	// re-buckets.
	planBuckets [][]int32
}

// stepPlan is one node's phase-1 output, committed in phase 2.
type stepPlan struct {
	next    Position
	moved   bool
	arrived bool
}

// StartMobility begins moving the given nodes under model every tick of
// virtual time. It returns a handle whose Stop halts movement. Node IDs are
// resolved once, here: unknown IDs and duplicates are dropped, and the
// surviving order is the canonical per-tick step order.
func (n *Network) StartMobility(model MobilityModel, tick time.Duration, nodeIDs ...string) *Mobility {
	if tick <= 0 {
		tick = time.Second
	}
	m := &Mobility{net: n, model: model, tick: tick, start: n.sim.Now()}
	m.planner, _ = model.(Planner)
	m.nodes = make([]*Node, 0, len(nodeIDs))
	seen := make([]bool, len(n.list))
	for _, id := range nodeIDs {
		node := n.Node(id)
		if node == nil || seen[node.orderIdx] {
			continue
		}
		seen[node.orderIdx] = true
		m.nodes = append(m.nodes, node)
		model.Init(n, node)
	}
	m.wake = make([]int64, len(m.nodes))
	for i, node := range m.nodes {
		m.arm(int32(i), node)
	}
	m.timer = n.sim.newTimer(m.onTick)
	m.timer.Reset(tick)
	return m
}

// onTick is the mobility tick: it steps the due set and re-arms the timer,
// taking the next tick's key after the step's own events, as a fresh
// Schedule here would.
func (m *Mobility) onTick() {
	m.tickIdx++
	m.stepDue()
	m.timer.Reset(m.tick)
}

// slotFor maps a virtual instant to the first tick slot firing at or after
// it — never earlier than the next tick.
func (m *Mobility) slotFor(at time.Duration) int64 {
	slot := m.tickIdx + 1
	if d := at - m.start; d > 0 {
		if k := int64((d + m.tick - 1) / m.tick); k > slot {
			slot = k
		}
	}
	return slot
}

// arm asks the model when member i next needs a step and sets its wake.
func (m *Mobility) arm(i int32, node *Node) {
	due, ok := m.model.NextDue(node, m.net.sim.Now())
	if !ok {
		m.wake[i] = parked
		return
	}
	m.wake[i] = m.slotFor(due)
}

// stepDue advances the members that are due and up, in member order, and
// re-arms each from its model's NextDue. A down member is not stepped and
// keeps its passed wake.
func (m *Mobility) stepDue() {
	m.due = m.due[:0]
	for i, w := range m.wake {
		if w <= m.tickIdx && m.nodes[i].Up {
			m.due = append(m.due, int32(i))
		}
	}
	if len(m.due) == 0 {
		return
	}
	if m.planner != nil && m.net.workers > 1 {
		m.stepTwoPhase(m.planner)
		return
	}
	for _, i := range m.due {
		node := m.nodes[i]
		m.model.Step(m.net, node, m.tick)
		// Keep the spatial index in step and advance the topology epoch
		// for any node the model actually moved.
		m.net.nodeMoved(node)
		m.arm(i, node)
	}
}

// stepTwoPhase is one parallel mobility tick over the due set. Phase 1
// plans movement across the worker pool, touching nothing shared; phase 2
// commits positions, the model's arrival RNG draws and the spatial
// re-indexing in canonical node order — so trajectories, epochs and the
// RNG stream are bit-identical to the serial engine.
func (m *Mobility) stepTwoPhase(model Planner) {
	m.resolved = m.resolved[:0]
	for _, i := range m.due {
		m.resolved = append(m.resolved, m.nodes[i])
	}
	if cap(m.plans) < len(m.resolved) {
		m.plans = make([]stepPlan, len(m.resolved))
	}
	plans := m.plans[:len(m.resolved)]
	now := m.net.Sim().Now()
	plan := func(i int) {
		next, moved, arrived := model.PlanStep(m.resolved[i], now, m.tick)
		plans[i] = stepPlan{next: next, moved: moved, arrived: arrived}
	}
	w := m.net.workers
	var buckets [][]int32
	if w > 1 && len(m.resolved) >= regionMoveParallelMin {
		// Locality-sharded planning: each worker streams the nodes of the
		// grid regions it owns, instead of an arbitrary index span — the
		// same spatial partition the commit shards by, so the buckets are
		// computed once and reused there. PlanStep is pure, so any
		// partition yields identical plans; only cache traffic changes.
		buckets = m.bucketByRegion(w)
		var wg sync.WaitGroup
		wg.Add(len(buckets))
		for _, bucket := range buckets {
			go func(idxs []int32) {
				defer wg.Done()
				for _, i := range idxs {
					plan(int(i))
				}
			}(bucket)
		}
		wg.Wait()
	} else {
		runSharded(len(m.resolved), w, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				plan(i)
			}
		})
	}
	for i, node := range m.resolved {
		if plans[i].moved {
			node.setPos(plans[i].next)
		}
		if plans[i].arrived {
			model.CommitArrival(m.net, node)
		}
	}
	// Re-index every moved node in one batch. When the planner built region
	// buckets the commit reuses them — same-region cell moves shard across
	// the pool, boundary crossings commit serially in canonical order;
	// otherwise the whole batch commits serially (see Network.commitMoves).
	m.net.commitMoves(m.resolved, buckets)
	for k, i := range m.due {
		m.arm(i, m.resolved[k])
	}
}

// bucketByRegion shards the resolved due set across w workers by the
// deterministic owner of each node's current grid region, reusing the
// bucket storage across ticks. Nodes of one region always land in one
// bucket, so the owning worker streams spatially-clustered SoA entries.
func (m *Mobility) bucketByRegion(w int) [][]int32 {
	for len(m.planBuckets) < w {
		m.planBuckets = append(m.planBuckets, nil)
	}
	buckets := m.planBuckets[:w]
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	for i, node := range m.resolved {
		o := regionOwner(regionOf(node.cell), w)
		buckets[o] = append(buckets[o], int32(i))
	}
	return buckets
}

// Stop halts movement. Safe to call more than once.
func (m *Mobility) Stop() {
	m.timer.Stop()
}
