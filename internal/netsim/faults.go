package netsim

import (
	"math/rand"
	"time"
)

// This file is the adversity layer: deterministic fault injection on top of
// the clean link model. Three mechanisms compose:
//
//   - Impairments degrade links beyond their class parameters: an extra
//     drop probability, latency jitter quantised to ticks, and bandwidth
//     degradation. They can target every link, one node's links, or one
//     specific pair.
//   - A ChurnSchedule crashes and rejoins nodes (and duty-cycles their
//     radios) on a fixed evaluation tick.
//   - Partition groups administratively sever every link between nodes in
//     different groups, regardless of range or class, until cleared.
//
// Every random fault decision is drawn from a dedicated fault RNG — never
// from the simulator's main PRNG — and always on the event-loop goroutine
// in a canonical order: impairment draws happen at transmit time (sends are
// serial), churn draws happen once per churn tick in the schedule's node
// order. Two consequences, both load-bearing for the test harness:
//
//   - Inertness: a network with no impairments, no churn and no partitions
//     never touches the fault RNG and never takes the fault branches, so
//     fault-free runs are byte-identical to a build without this file.
//   - Worker independence: the parallel tick phases (mobility planning,
//     cache warming) never draw from either RNG, so faulty runs stay
//     bit-identical at any SetWorkers count, exactly like clean runs.

// Impairment degrades a link beyond its class parameters. The zero value
// means "no impairment".
type Impairment struct {
	// Drop is an extra independent per-message drop probability in [0,1),
	// applied after the link class's own loss draw.
	Drop float64
	// JitterTicks adds a uniform 0..JitterTicks ticks of extra delivery
	// latency per message (the draw is an integer number of ticks, so
	// jitter composes with tick-driven experiments).
	JitterTicks int
	// JitterTick is the tick length jitter is quantised to; 0 defaults to
	// 100ms.
	JitterTick time.Duration
	// BandwidthFactor scales the link's effective bandwidth, in (0,1];
	// 0 means unchanged. Values outside [0,1] are normalised to
	// "unchanged" by the Impair setters — the layer models degradation,
	// never speedup.
	BandwidthFactor float64
}

// normalized maps out-of-contract fields onto the documented semantics, so
// a nonsense rule can neither silently mark the network impaired nor
// smuggle negative draws in.
func (im Impairment) normalized() Impairment {
	if im.BandwidthFactor >= 1 || im.BandwidthFactor < 0 {
		im.BandwidthFactor = 0 // outside (0,1): no bandwidth change
	}
	if im.JitterTicks < 0 {
		im.JitterTicks = 0
	}
	if im.Drop < 0 {
		im.Drop = 0
	}
	return im
}

// IsZero reports whether the impairment changes nothing.
func (im Impairment) IsZero() bool {
	return im.Drop == 0 && im.JitterTicks == 0 &&
		(im.BandwidthFactor == 0 || im.BandwidthFactor == 1)
}

// jitterTick returns the quantum jitter draws are multiplied by.
func (im Impairment) jitterTick() time.Duration {
	if im.JitterTick > 0 {
		return im.JitterTick
	}
	return 100 * time.Millisecond
}

// composeImpairments merges two impairments into their combined effect:
// drops compose as independent events, jitter takes the rule with the
// worse total bound (ticks x tick length, so an extra rule can never
// reduce jitter), and bandwidth factors multiply. The composition is
// commutative, so the effective impairment of a link does not depend on
// rule insertion order.
func composeImpairments(a, b Impairment) Impairment {
	out := a
	out.Drop = 1 - (1-a.Drop)*(1-b.Drop)
	boundA := time.Duration(a.JitterTicks) * a.jitterTick()
	boundB := time.Duration(b.JitterTicks) * b.jitterTick()
	// Equal bounds tie-break on tick count so the pick is order-independent.
	if boundB > boundA || (boundB == boundA && b.JitterTicks > a.JitterTicks) {
		out.JitterTicks, out.JitterTick = b.JitterTicks, b.JitterTick
	}
	fa, fb := a.BandwidthFactor, b.BandwidthFactor
	if fa == 0 {
		fa = 1
	}
	if fb == 0 {
		fb = 1
	}
	if fa*fb == 1 {
		out.BandwidthFactor = 0
	} else {
		out.BandwidthFactor = fa * fb
	}
	return out
}

// FaultStats counts fault-layer activity on a network.
type FaultStats struct {
	// Drops counts messages dropped by impairment (beyond class loss).
	Drops int64
	// Jittered counts messages delayed by a nonzero jitter draw.
	Jittered int64
}

// SetFaultSeed seeds the dedicated fault RNG. Fault decisions (impairment
// drops, jitter draws, churn crashes) come from this stream and never from
// the simulator's main PRNG, so enabling faults does not perturb the clean
// run's random sequence. Without an explicit seed the fault RNG derives
// from the simulator seed on first use.
func (n *Network) SetFaultSeed(seed int64) {
	n.faultRNG = rand.New(rand.NewSource(seed))
}

// faultRand returns the fault RNG, deriving it from the simulator seed on
// first use.
func (n *Network) faultRand() *rand.Rand {
	if n.faultRNG == nil {
		n.faultRNG = rand.New(rand.NewSource(n.sim.Seed() ^ 0x6661756c74)) // "fault"
	}
	return n.faultRNG
}

// FaultStats returns a copy of the fault-layer counters.
func (n *Network) FaultStats() FaultStats { return n.faultStats }

// ImpairAll applies imp to every link in the network, composing with any
// node- or pair-level impairments. A zero imp removes the global rule.
func (n *Network) ImpairAll(imp Impairment) {
	n.impDefault = imp.normalized()
	n.recountImpaired()
}

// ImpairNode applies imp to every link touching node id. A zero imp removes
// the node's rule; an unknown id is ignored.
func (n *Network) ImpairNode(id string, imp Impairment) {
	node := n.nodes[id]
	if node == nil {
		return
	}
	imp = imp.normalized()
	if node.orderIdx >= len(n.impNode) {
		if imp.IsZero() {
			return // no rule to remove, and no table made for the asking
		}
		n.impNode = append(n.impNode, make([]Impairment, len(n.list)-len(n.impNode))...)
	}
	n.impNode[node.orderIdx] = imp
	n.recountImpaired()
}

// nodeImpairment returns node's own rule, zero if it has none: a node added
// after the table was last grown lies past its end.
func (n *Network) nodeImpairment(node *Node) Impairment {
	if node.orderIdx >= len(n.impNode) {
		return Impairment{}
	}
	return n.impNode[node.orderIdx]
}

// ImpairLink applies imp to the specific pair a-b (either direction). A
// zero imp removes the pair's rule.
func (n *Network) ImpairLink(a, b string, imp Impairment) {
	if n.impLink == nil {
		n.impLink = make(map[[2]string]Impairment)
	}
	imp = imp.normalized()
	k := linkKey(a, b)
	if imp.IsZero() {
		delete(n.impLink, k)
	} else {
		n.impLink[k] = imp
	}
	n.recountImpaired()
}

func (n *Network) recountImpaired() {
	n.impaired = !n.impDefault.IsZero() || len(n.impNode) > 0 || len(n.impLink) > 0
}

// impairmentFor resolves the effective impairment of a transmission from
// src to dst: the global rule composed with both endpoints' node rules and
// the pair rule. A node without a rule is skipped, not composed as a zero
// rule: 1-(1-d) is not d in floating point, and the drop draws compare
// against exactly the declared probability.
func (n *Network) impairmentFor(src, dst *Node) (Impairment, bool) {
	imp := n.impDefault
	if ni := n.nodeImpairment(src); !ni.IsZero() {
		imp = composeImpairments(imp, ni)
	}
	if ni := n.nodeImpairment(dst); !ni.IsZero() {
		imp = composeImpairments(imp, ni)
	}
	if len(n.impLink) > 0 {
		if li, ok := n.impLink[linkKey(src.ID, dst.ID)]; ok {
			imp = composeImpairments(imp, li)
		}
	}
	return imp, !imp.IsZero()
}

// applyImpairment performs the fault-layer draws for one transmission, in a
// fixed order (drop, then jitter): it reports whether the message is
// dropped and the extra delivery latency otherwise. Runs on the event-loop
// goroutine; sends are serial, so the fault RNG stream is canonical at any
// worker count.
func (n *Network) applyImpairment(imp Impairment) (dropped bool, extra time.Duration) {
	if imp.Drop > 0 && n.faultRand().Float64() < imp.Drop {
		n.faultStats.Drops++
		return true, 0
	}
	if imp.JitterTicks > 0 {
		if ticks := n.faultRand().Intn(imp.JitterTicks + 1); ticks > 0 {
			extra = time.Duration(ticks) * imp.jitterTick()
			n.faultStats.Jittered++
		}
	}
	return false, extra
}

// --- partitions ---

// SetPartitionGroup assigns node id to a partition group. Nodes in
// different groups cannot communicate — the partition is administrative and
// severs even infrastructure links. Group 0 is the default, also of nodes
// added later. Assignments snapshot group membership: a mobile node keeps
// its group wherever it roams, until reassigned or cleared.
func (n *Network) SetPartitionGroup(id string, group int) {
	node := n.nodes[id]
	if node == nil || n.groupOf(node) == group {
		return
	}
	if len(n.parts) < len(n.list) {
		n.parts = append(n.parts, make([]int, len(n.list)-len(n.parts))...)
	}
	n.parts[node.orderIdx] = group
	n.bumpEpoch()
}

// PartitionGroup returns the node's current partition group (0 = default).
func (n *Network) PartitionGroup(id string) int { return n.groupOf(n.nodes[id]) }

// groupOf reads node's slot of the group table, which exists only between
// the first assignment and ClearPartitions; an unknown node, and one past
// the table's end (added since), is in the default group.
func (n *Network) groupOf(node *Node) int {
	if node == nil || node.orderIdx >= len(n.parts) {
		return 0
	}
	return n.parts[node.orderIdx]
}

// ClearPartitions heals every partition, returning all nodes to group 0.
func (n *Network) ClearPartitions() {
	if len(n.parts) == 0 {
		return
	}
	n.parts = nil
	n.bumpEpoch()
}

// partitioned reports whether na and nb are separated by partition groups.
// Callers guard with len(n.parts) > 0 so the fault-free hot path pays one
// length check.
func (n *Network) partitionedPair(na, nb *Node) bool {
	return n.groupOf(na) != n.groupOf(nb)
}

// --- churn ---

// ChurnSchedule drives crash/rejoin and duty-cycle faults over a node set.
// All probabilities are evaluated once per Tick, in the node order given to
// StartChurn, from the network's fault RNG — serial and canonical, so churn
// realisations are bit-identical at any worker count.
type ChurnSchedule struct {
	// Tick is the evaluation interval; 0 defaults to 10s.
	Tick time.Duration
	// CrashProb is the per-tick probability that an up, uncrashed node
	// crashes (goes down until its rejoin fires).
	CrashProb float64
	// Downtime is how long a crashed node stays down; 0 defaults to 2*Tick.
	Downtime time.Duration
	// DowntimeJitterTicks adds a uniform 0..N extra ticks of downtime per
	// crash.
	DowntimeJitterTicks int
	// DutyPeriod and DutyOn, when both positive, duty-cycle the radios
	// deterministically (no RNG): each node is up for DutyOn out of every
	// DutyPeriod, phase-staggered across the node set so the whole
	// population never sleeps at once. The square wave is sampled once per
	// Tick, so DutyPeriod must span several ticks to avoid aliasing into a
	// frozen on/off pattern (the scenario layer rejects DutyPeriod <=
	// Tick outright).
	DutyPeriod, DutyOn time.Duration
}

// Interval returns the evaluation interval the schedule runs at: Tick, or
// its 10s default. It is the one place that knows the default.
func (cs ChurnSchedule) Interval() time.Duration {
	if cs.Tick > 0 {
		return cs.Tick
	}
	return 10 * time.Second
}

func (cs ChurnSchedule) downtime() time.Duration {
	if cs.Downtime > 0 {
		return cs.Downtime
	}
	return 2 * cs.Interval()
}

// ChurnStats records churn outcomes.
type ChurnStats struct {
	// Crashes and Rejoins count crash events and completed recoveries.
	Crashes, Rejoins int64
	// Downtime is the cumulative down duration of completed recoveries, so
	// Downtime/Rejoins is the mean time-to-repair.
	Downtime time.Duration
}

// Churn is a running ChurnSchedule. Stop halts it (crashed nodes still
// rejoin as scheduled).
type Churn struct {
	net   *Network
	sched ChurnSchedule
	// nodes are the members in the order given, resolved once. An unknown ID
	// keeps its slot as nil, so the member index — draw order, duty phase,
	// and the index of crashed and dutyOff — is the caller's.
	nodes            []*Node
	crashed, dutyOff []bool
	timer            *timer // the tick, re-armed from its own callback
	// Stats accumulates over the churn's lifetime; read it after the run.
	Stats ChurnStats
}

// StartChurn begins evaluating sched over the given nodes every tick. The
// node order is the draw order: callers pass a canonical (e.g. insertion)
// order to keep runs reproducible.
func (n *Network) StartChurn(sched ChurnSchedule, nodeIDs ...string) *Churn {
	c := &Churn{
		net:     n,
		sched:   sched,
		nodes:   make([]*Node, len(nodeIDs)),
		crashed: make([]bool, len(nodeIDs)),
		dutyOff: make([]bool, len(nodeIDs)),
	}
	for i, id := range nodeIDs {
		c.nodes[i] = n.nodes[id]
	}
	c.timer = n.sim.newTimer(c.onTick)
	c.timer.Reset(sched.Interval())
	return c
}

// onTick is one churn tick and the re-arm of the next.
func (c *Churn) onTick() {
	c.step()
	c.timer.Reset(c.sched.Interval())
}

// dutyCycling reports whether the schedule defines a meaningful duty cycle.
func (c *Churn) dutyCycling() bool {
	return c.sched.DutyPeriod > 0 && c.sched.DutyOn > 0 && c.sched.DutyOn < c.sched.DutyPeriod
}

// dutyOffAt evaluates node i's phase-staggered square wave at the given
// instant: node i sleeps in a different slice of the period than node i+1.
func (c *Churn) dutyOffAt(i int, now time.Duration) bool {
	if !c.dutyCycling() {
		return false
	}
	phase := c.sched.DutyPeriod * time.Duration(i) / time.Duration(len(c.nodes))
	return (now+phase)%c.sched.DutyPeriod >= c.sched.DutyOn
}

// step is one churn tick: duty-cycle transitions first (deterministic),
// then crash draws, in node order.
func (c *Churn) step() {
	now := c.net.Sim().Now()
	duty := c.dutyCycling()
	for i, node := range c.nodes {
		if node == nil || c.crashed[i] {
			continue
		}
		if duty {
			off := c.dutyOffAt(i, now)
			if off != c.dutyOff[i] {
				c.dutyOff[i] = off
				c.net.setUp(node, !off)
			}
			if off {
				continue // a sleeping radio cannot also crash
			}
		}
		if c.sched.CrashProb > 0 && node.Up && c.net.faultRand().Float64() < c.sched.CrashProb {
			c.crash(i, node)
		}
	}
}

// crash takes node i down and schedules its rejoin.
func (c *Churn) crash(i int, node *Node) {
	down := c.sched.downtime()
	if c.sched.DowntimeJitterTicks > 0 {
		down += time.Duration(c.net.faultRand().Intn(c.sched.DowntimeJitterTicks+1)) * c.sched.Interval()
	}
	c.crashed[i] = true
	c.Stats.Crashes++
	c.net.setUp(node, false)
	c.net.Sim().Schedule(down, func() {
		c.crashed[i] = false
		c.Stats.Rejoins++
		c.Stats.Downtime += down
		// Rejoin respects the duty cycle as of *now*, not as of the crash:
		// a node whose duty slot is currently off stays asleep until the
		// schedule turns it back on.
		off := c.dutyOffAt(i, c.net.Sim().Now())
		c.dutyOff[i] = off
		c.net.setUp(node, !off)
	})
}

// Stop halts churn evaluation. Safe to call more than once.
func (c *Churn) Stop() { c.timer.Stop() }
