package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"
)

// LinkClass describes the physical layer a node is attached to. Costs and
// delays are charged per message from the sender's class parameters.
type LinkClass struct {
	// Name identifies the class in output tables.
	Name string
	// Infrastructure links reach every other up node on an infrastructure
	// class regardless of position (e.g. GPRS, LAN). Non-infrastructure
	// (ad-hoc) links require radio-range adjacency.
	Infrastructure bool
	// Latency is the fixed per-message propagation delay.
	Latency time.Duration
	// BandwidthBps is the serialisation rate in bytes per second.
	BandwidthBps float64
	// Loss is the independent per-message drop probability in [0,1).
	Loss float64
	// CostPerByte is the monetary cost charged to the sender per byte.
	CostPerByte float64
	// EnergyPerByte is the battery energy charged to both endpoints per byte.
	EnergyPerByte float64
	// Range is the default radio range for nodes of this class.
	Range float64
}

// Predefined link classes with parameters representative of the networking
// systems the paper names (802.11b, Bluetooth piconets, GSM/GPRS, fixed LAN).
var (
	// AdHoc models a Bluetooth-piconet-style short-range free link.
	AdHoc = LinkClass{
		Name: "adhoc", Latency: 30 * time.Millisecond,
		BandwidthBps: 90e3, Loss: 0.01, EnergyPerByte: 1.0, Range: 30,
	}
	// WLAN models an 802.11b access-network link.
	WLAN = LinkClass{
		Name: "wlan", Latency: 8 * time.Millisecond,
		BandwidthBps: 650e3, Loss: 0.002, EnergyPerByte: 0.6, Range: 100,
	}
	// GPRS models a costed, slow, always-on cellular link.
	GPRS = LinkClass{
		Name: "gprs", Infrastructure: true, Latency: 600 * time.Millisecond,
		BandwidthBps: 5e3, Loss: 0.005, CostPerByte: 0.00002, EnergyPerByte: 2.0, Range: math.Inf(1),
	}
	// LAN models a fixed wired link for servers.
	LAN = LinkClass{
		Name: "lan", Infrastructure: true, Latency: 1 * time.Millisecond,
		BandwidthBps: 12.5e6, Range: math.Inf(1),
	}
)

// Position is a point on the simulated field, in metres.
type Position struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two positions.
func (p Position) Dist(q Position) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Usage is the cumulative traffic account of one node.
type Usage struct {
	BytesSent int64
	BytesRecv int64
	MsgsSent  int64
	MsgsRecv  int64
	MsgsLost  int64
	// Cost is the monetary cost charged for sent traffic.
	Cost float64
	// Energy is battery energy consumed by traffic in both directions.
	Energy float64
	// Airtime is the cumulative serialisation time of sent traffic.
	Airtime time.Duration
}

// Add accumulates other into u.
func (u *Usage) Add(other Usage) {
	u.BytesSent += other.BytesSent
	u.BytesRecv += other.BytesRecv
	u.MsgsSent += other.MsgsSent
	u.MsgsRecv += other.MsgsRecv
	u.MsgsLost += other.MsgsLost
	u.Cost += other.Cost
	u.Energy += other.Energy
	u.Airtime += other.Airtime
}

// Handler receives a message delivered to a node. Handlers run inside the
// simulation loop and must not block. The payload is owned by the network:
// unicast buffers are recycled when the handler returns and broadcast
// buffers are shared between receivers, so a handler must copy any bytes it
// retains and must never mutate the payload.
type Handler func(from string, payload []byte)

// Node is a device attached to the network. The per-tick hot fields —
// position, neighbor-cache epoch, energy budget — live in the owning
// Network's struct-of-arrays storage (parallel slices indexed by the node's
// insertion index) and are reached through accessors, so the sharded bulk
// passes stream through flat memory instead of chasing per-node pointers.
type Node struct {
	ID string
	// Class and Range are fixed at AddNode time as far as topology is
	// concerned: mutating fields that affect connectivity (Range,
	// Class.Range, Class.Infrastructure) afterwards bypasses the spatial
	// index and the topology epoch, leaving stale cached neighbor sets.
	// Non-topological fields (e.g. Class.Loss) may be adjusted freely.
	Class LinkClass
	// Range overrides Class.Range when nonzero.
	Range   float64
	Up      bool
	handler Handler
	usage   Usage
	net     *Network // owner, for the SoA field accessors

	// waypoint state used by RandomWaypoint.
	target  Position
	speed   float64
	pauseTo time.Duration

	// spatial-index bookkeeping maintained by Network.
	orderIdx int      // insertion index, the network-wide iteration order
	infra    bool     // lives in the infra set rather than the grid
	gridPos  Position // the position the index currently reflects
	cell     cellKey
	cellSlot int

	// per-node neighbor cache, valid while the SoA epoch slot matches the
	// network's topology epoch.
	nbrCache []*Node
}

// Pos returns the node's current field position. Move nodes with
// Network.SetPos (or a MobilityModel) so the spatial index and cached
// neighbor sets see the change.
func (n *Node) Pos() Position {
	return Position{X: n.net.posX[n.orderIdx], Y: n.net.posY[n.orderIdx]}
}

// setPos writes the node's position into the SoA storage. It does not
// re-index: callers go through Network.SetPos or nodeMoved.
func (n *Node) setPos(p Position) {
	n.net.posX[n.orderIdx] = p.X
	n.net.posY[n.orderIdx] = p.Y
}

// EnergyBudget returns the node's battery capacity. When positive, the node
// is dead once cumulative usage.Energy reaches it: the radio neither
// transmits nor receives (deliveries in flight are discarded on arrival).
// 0 (the default) means an unlimited power supply, and the budget is never
// consulted. Budget exhaustion is deliberately kept out of
// Connected/Neighbors: it does not advance the topology epoch, so cached
// neighbor sets stay valid and the enforcement point is the transmission
// itself, serial on the event loop at any worker count. Set it with
// Network.SetEnergyBudget.
func (n *Node) EnergyBudget() float64 { return n.net.budgets[n.orderIdx] }

// EffectiveRange returns the node's radio range.
func (n *Node) EffectiveRange() float64 {
	if n.Range > 0 {
		return n.Range
	}
	return n.Class.Range
}

// exhausted reports whether the node's energy budget is spent.
func (n *Node) exhausted() bool {
	b := n.net.budgets[n.orderIdx]
	return b > 0 && n.usage.Energy >= b
}

// Battery returns the node's remaining battery fraction in [0,1]: 1 with no
// budget configured, else 1 - Energy/EnergyBudget clamped at 0.
func (n *Node) Battery() float64 {
	b := n.net.budgets[n.orderIdx]
	if b <= 0 {
		return 1
	}
	left := 1 - n.usage.Energy/b
	if left < 0 {
		return 0
	}
	return left
}

// Usage returns a copy of the node's cumulative traffic account.
func (n *Node) Usage() Usage { return n.usage }

// Network is a set of nodes over a shared field plus the rules that decide
// which pairs can currently communicate.
//
// Connectivity queries are served by a uniform-grid spatial index over the
// ad-hoc nodes plus a dedicated set of infrastructure nodes, so Neighbors,
// Broadcast and Route touch only the nodes near the query instead of
// scanning the whole field. Query results always resolve to insertion
// order before any RNG draw or delivery, so a given seed reproduces the
// same run regardless of index internals.
type Network struct {
	sim   *Sim
	nodes map[string]*Node
	list  []*Node // nodes in insertion order, the deterministic iteration order
	infra []*Node // infrastructure nodes in insertion order
	grid  *grid   // position index over non-infrastructure nodes
	cuts  map[[2]string]bool
	// epoch is the topology epoch: it advances on any change that can
	// affect connectivity (join, move, up/down, cut/restore) and
	// invalidates every per-node cached neighbor set.
	epoch   uint64
	scratch []*Node // reusable candidate buffer for grid queries
	// routePrev and routeQueue are Route's BFS scratch, made by the first
	// Route: the tree's parent per node (by orderIdx, nil when unvisited)
	// and the FIFO of visited nodes. Both are cleared before Route returns.
	routePrev  []*Node
	routeQueue []*Node
	// payloadFree recycles unicast delivery buffers: a buffer is taken at
	// transmit time, handed to the destination handler, and returned to the
	// list when the handler returns. Broadcast payloads are excluded (they
	// are shared across receivers and their lifetime is unbounded).
	payloadFree [][]byte
	// Struct-of-arrays node storage, indexed by Node.orderIdx (append-only:
	// nodes are never removed). The per-tick hot fields — positions,
	// neighbor-cache epochs, energy budgets — live here in parallel slices
	// so the sharded bulk passes (mobility planning, neighbor-cache warms)
	// stream through flat memory instead of loading whole Node structs.
	posX, posY []float64
	nbrEpochs  []uint64
	budgets    []float64
	// workers sizes the two-phase tick worker pool (see parallel.go);
	// 1 keeps everything on the event-loop goroutine.
	workers int
	// epochMisses counts neighbor-cache misses at the current epoch; a
	// burst of misses (a beacon round querying the whole field) triggers a
	// parallel warm of every cache when workers > 1.
	epochMisses int
	// crossers and moveFlags are reusable classification buffers for the
	// bucketed move commit (see commitMoves in parallel.go): region-crossing
	// movers, and a per-committed-index flag marking same-region movers.
	crossers  []*Node
	moveFlags []uint8
	// DropHandler, when set, observes messages lost to link loss.
	DropHandler func(from, to string, bytes int)

	// Adversity layer (see faults.go). All zero-valued when no faults are
	// injected, in which case none of it is consulted on the hot paths and
	// the fault RNG is never drawn.
	//
	// impNode and parts are indexed by Node.orderIdx like the SoA slices
	// above, but allocated on first use and never grown by AddNode (a node
	// past the end has no rule and group 0) — a field on Node would bill
	// every fault-free world for them.
	faultRNG   *rand.Rand
	impDefault Impairment
	impNode    []Impairment
	impLink    map[[2]string]Impairment
	impaired   bool
	parts      []int
	faultStats FaultStats
}

// NewNetwork returns an empty network driven by sim.
func NewNetwork(sim *Sim) *Network {
	return &Network{
		sim:     sim,
		nodes:   make(map[string]*Node),
		grid:    newGrid(),
		cuts:    make(map[[2]string]bool),
		epoch:   1,
		workers: 1,
	}
}

// TopologyEpoch returns the current topology epoch. It advances whenever
// connectivity may have changed, so callers can cheaply detect that cached
// neighbor-derived state needs refreshing (and experiments can report
// topology churn).
func (n *Network) TopologyEpoch() uint64 { return n.epoch }

func (n *Network) bumpEpoch() {
	n.epoch++
	n.epochMisses = 0
}

// Sim returns the driving simulator.
func (n *Network) Sim() *Sim { return n.sim }

// AddNode attaches a new up node and returns it. It panics if the ID is
// already in use; node IDs are chosen by the test or experiment author.
func (n *Network) AddNode(id string, pos Position, class LinkClass) *Node {
	if _, ok := n.nodes[id]; ok {
		panic(fmt.Sprintf("netsim: duplicate node %q", id))
	}
	node := &Node{
		ID: id, Class: class, Up: true,
		net:      n,
		orderIdx: len(n.list),
		infra:    class.Infrastructure,
		gridPos:  pos,
	}
	n.posX = append(n.posX, pos.X)
	n.posY = append(n.posY, pos.Y)
	n.nbrEpochs = append(n.nbrEpochs, 0)
	n.budgets = append(n.budgets, 0)
	n.nodes[id] = node
	if !node.infra {
		// Grow the grid before inserting so the rebuild (which walks the
		// existing node list) does not index this node twice.
		if r := node.EffectiveRange(); r > n.grid.cellSize && !math.IsInf(r, 1) {
			n.grid.grow(r, n.list)
		}
	}
	n.list = append(n.list, node)
	if node.infra {
		n.infra = append(n.infra, node)
	} else {
		n.grid.insert(node)
	}
	n.bumpEpoch()
	return node
}

// SetPos moves a node, keeping the spatial index and topology epoch in
// step. Use this (or a MobilityModel) to move nodes.
func (n *Network) SetPos(id string, pos Position) {
	if node := n.nodes[id]; node != nil {
		node.setPos(pos)
		n.nodeMoved(node)
	}
}

// nodeMoved re-indexes node after a position change. Infrastructure nodes
// are position-independent, so their moves do not advance the epoch.
func (n *Network) nodeMoved(node *Node) {
	pos := node.Pos()
	if pos == node.gridPos {
		return
	}
	node.gridPos = pos
	if !node.infra {
		n.grid.update(node)
		n.bumpEpoch()
	}
}

// Node returns the node with the given ID, or nil.
func (n *Network) Node(id string) *Node { return n.nodes[id] }

// Nodes returns all node IDs in insertion order.
func (n *Network) Nodes() []string {
	out := make([]string, len(n.list))
	for i, node := range n.list {
		out[i] = node.ID
	}
	return out
}

// SetHandler installs the delivery handler for node id.
func (n *Network) SetHandler(id string, h Handler) {
	node := n.nodes[id]
	if node == nil {
		panic(fmt.Sprintf("netsim: SetHandler on unknown node %q", id))
	}
	node.handler = h
}

// SetUp marks a node up or down. Down nodes neither send nor receive, and
// a mobility tick does not step them.
func (n *Network) SetUp(id string, up bool) {
	if node := n.nodes[id]; node != nil {
		n.setUp(node, up)
	}
}

// setUp is SetUp on a resolved node.
func (n *Network) setUp(node *Node, up bool) {
	if node.Up != up {
		node.Up = up
		n.bumpEpoch()
	}
}

// CutLink administratively severs the link between a and b regardless of
// range, until RestoreLink.
func (n *Network) CutLink(a, b string) {
	k := linkKey(a, b)
	if !n.cuts[k] {
		n.cuts[k] = true
		n.bumpEpoch()
	}
}

// RestoreLink undoes CutLink.
func (n *Network) RestoreLink(a, b string) {
	k := linkKey(a, b)
	if n.cuts[k] {
		delete(n.cuts, k)
		n.bumpEpoch()
	}
}

func linkKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Connected reports whether a and b can currently exchange messages in one
// hop.
func (n *Network) Connected(a, b string) bool {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil || a == b {
		return false
	}
	return n.connectedNodes(na, nb)
}

// connectedNodes is Connected on resolved nodes, skipping the map lookups
// on the hot candidate-filtering path.
func (n *Network) connectedNodes(na, nb *Node) bool {
	if !na.Up || !nb.Up || na == nb {
		return false
	}
	if len(n.cuts) > 0 && n.cuts[linkKey(na.ID, nb.ID)] {
		return false
	}
	if len(n.parts) > 0 && n.partitionedPair(na, nb) {
		return false
	}
	// Infrastructure nodes reach every other up node anywhere — other
	// infrastructure directly, ad-hoc devices through the carrier (e.g. a
	// GPRS phone to a LAN server). Ad-hoc pairs need mutual radio range.
	if na.Class.Infrastructure || nb.Class.Infrastructure {
		return true
	}
	d := na.Pos().Dist(nb.Pos())
	return d <= na.EffectiveRange() && d <= nb.EffectiveRange()
}

// Neighbors returns the IDs of all nodes currently connected to id, in
// insertion order.
func (n *Network) Neighbors(id string) []string { return n.AppendNeighbors(nil, id) }

// AppendNeighbors appends what Neighbors(id) returns to dst and returns the
// extended slice, so a caller that asks again and again can reuse one.
func (n *Network) AppendNeighbors(dst []string, id string) []string {
	node := n.nodes[id]
	if node == nil {
		return dst
	}
	nbrs := n.neighborsOf(node)
	if len(nbrs) == 0 {
		return dst
	}
	dst = slices.Grow(dst, len(nbrs))
	for _, nb := range nbrs {
		dst = append(dst, nb.ID)
	}
	return dst
}

// neighborsOf returns node's neighbor set in insertion order, serving it
// from the node's cache while the topology epoch is unchanged. The returned
// slice is the cache itself, rewritten in place on the next epoch: callers
// must not mutate it or retain it across topology changes (Neighbors hands
// out a copy of the IDs, Broadcast copies receivers into its run lists).
func (n *Network) neighborsOf(node *Node) []*Node {
	if n.nbrEpochs[node.orderIdx] == n.epoch {
		return node.nbrCache
	}
	if n.workers > 1 {
		// A burst of same-epoch misses means the whole field is being
		// queried (a beacon round): fill every cache at once across the
		// worker pool instead of one miss at a time. Purely a cache fill —
		// results are identical either way.
		n.epochMisses++
		if n.epochMisses >= n.warmThreshold() {
			n.warmNeighborCaches()
			return node.nbrCache
		}
	}
	node.nbrCache, n.scratch = n.computeNeighbors(node, n.scratch)
	n.nbrEpochs[node.orderIdx] = n.epoch
	return node.nbrCache
}

// computeNeighbors gathers candidates from the infra set and the grid ring
// around node, filters them through exact connectivity, and resolves the
// result to insertion order. The result goes into node's previous cache
// array when it is large enough (nobody may hold a neighbor slice across an
// epoch, see neighborsOf). scratch is the caller's reusable candidate buffer
// (per-worker during a parallel warm); the possibly-grown buffer is returned
// for reuse.
func (n *Network) computeNeighbors(node *Node, scratch []*Node) ([]*Node, []*Node) {
	if !node.Up {
		return nil, scratch
	}
	cand := scratch[:0]
	if node.infra {
		// An infrastructure node reaches every up node; candidates are all.
		cand = append(cand, n.list...)
	} else {
		cand = append(cand, n.infra...)
		r := node.EffectiveRange()
		if math.IsInf(r, 1) || math.IsNaN(r) {
			// Unbounded ad-hoc radio: no ring bounds the search.
			for _, other := range n.list {
				if !other.infra {
					cand = append(cand, other)
				}
			}
		} else {
			cand = n.grid.appendWithin(node.gridPos, r, cand)
		}
	}
	k := 0
	for _, other := range cand {
		if other != node && n.connectedNodes(node, other) {
			cand[k] = other
			k++
		}
	}
	cand = cand[:k]
	// Grid cells yield nodes in index order, not insertion order; resolve
	// to insertion order so RNG draws and deliveries stay deterministic.
	slices.SortFunc(cand, func(a, b *Node) int { return a.orderIdx - b.orderIdx })
	out := node.nbrCache[:0]
	if cap(out) < k {
		out = make([]*Node, 0, k)
	}
	out = append(out, cand...)
	return out, cand[:0] // hand back the (possibly grown) buffer
}

// Reachable reports whether a path of connected links exists from a to b.
func (n *Network) Reachable(a, b string) bool {
	return len(n.Route(a, b)) > 0
}

// Route returns a shortest hop path from a to b inclusive of both endpoints,
// or nil if none exists. BFS over grid-backed adjacency, expanding each
// node's neighbors in insertion order, keeps it deterministic and identical
// to a BFS over the full node list.
func (n *Network) Route(a, b string) []string {
	src, dst := n.nodes[a], n.nodes[b]
	if src == nil || dst == nil {
		return nil
	}
	if src == dst {
		return []string{a}
	}
	// prev is indexed by orderIdx; the queue lists exactly the nodes whose
	// entry is set, so clearing through it leaves prev all nil again.
	if len(n.routePrev) < len(n.list) {
		n.routePrev = make([]*Node, len(n.list))
	}
	prev, queue := n.routePrev, append(n.routeQueue[:0], src)
	prev[src.orderIdx] = src
	var path []string
	for head := 0; head < len(queue) && path == nil; head++ {
		cur := queue[head]
		for _, next := range n.neighborsOf(cur) {
			if prev[next.orderIdx] != nil {
				continue
			}
			prev[next.orderIdx] = cur
			queue = append(queue, next)
			if next == dst {
				path = routePath(prev, src, dst)
				break
			}
		}
	}
	for _, node := range queue {
		prev[node.orderIdx] = nil
	}
	n.routeQueue = queue[:0] // nodes are never removed, so it pins nothing
	return path
}

// routePath reads the BFS tree prev back from dst to src into one slice of
// exactly the path's length.
func routePath(prev []*Node, src, dst *Node) []string {
	hops := 1
	for at := dst; at != src; at = prev[at.orderIdx] {
		hops++
	}
	path := make([]string, hops)
	for at := dst; ; at = prev[at.orderIdx] {
		hops--
		path[hops] = at.ID
		if at == src {
			return path
		}
	}
}

// ErrUnreachable reports that no usable link exists for a send.
type ErrUnreachable struct {
	From, To string
}

func (e *ErrUnreachable) Error() string {
	return fmt.Sprintf("netsim: %s cannot reach %s", e.From, e.To)
}

// ErrExhausted reports a send refused because the sender's energy budget is
// spent.
type ErrExhausted struct {
	Node string
}

func (e *ErrExhausted) Error() string {
	return fmt.Sprintf("netsim: %s has exhausted its energy budget", e.Node)
}

// SetEnergyBudget sets (or clears, with 0) a node's battery budget. See
// Node.EnergyBudget for the exhaustion semantics.
func (n *Network) SetEnergyBudget(id string, budget float64) {
	if node := n.nodes[id]; node != nil {
		n.budgets[node.orderIdx] = budget
	}
}

// BatteryLevel returns a node's remaining battery fraction in [0,1]
// (1 for unknown nodes and nodes without a budget).
func (n *Network) BatteryLevel(id string) float64 {
	if node := n.nodes[id]; node != nil {
		return node.Battery()
	}
	return 1
}

// LinkState reports a node's current effective link parameters as the
// device itself could observe them: its class parameters degraded by the
// global and node-level impairment rules. Pair-level rules are per-peer and
// excluded — this is the node's own view of its radio, which is what a
// context sensor can honestly sample.
func (n *Network) LinkState(id string) (bandwidthBps float64, latency time.Duration, loss float64) {
	node := n.nodes[id]
	if node == nil {
		return 0, 0, 0
	}
	bandwidthBps = node.Class.BandwidthBps
	latency = node.Class.Latency
	loss = node.Class.Loss
	if n.impaired {
		imp := n.impDefault
		if ni := n.nodeImpairment(node); !ni.IsZero() {
			imp = composeImpairments(imp, ni)
		}
		if !imp.IsZero() {
			if f := imp.BandwidthFactor; f > 0 && f < 1 {
				bandwidthBps *= f
			}
			// Expected jitter of a uniform 0..N tick draw is N/2 ticks.
			latency += time.Duration(imp.JitterTicks) * imp.jitterTick() / 2
			loss = 1 - (1-loss)*(1-imp.Drop)
		}
	}
	return bandwidthBps, latency, loss
}

// bottleneck returns the effective link parameters of a pair: the slower
// bandwidth and the larger latency of the two endpoint classes. A LAN server
// talking to a GPRS phone moves data at GPRS speed.
func bottleneck(a, b LinkClass) LinkClass {
	eff := a
	if b.BandwidthBps < eff.BandwidthBps {
		eff.BandwidthBps = b.BandwidthBps
	}
	if b.Latency > eff.Latency {
		eff.Latency = b.Latency
	}
	if b.Loss > eff.Loss {
		eff.Loss = b.Loss
	}
	return eff
}

// transferTime returns the time to move size bytes over the effective link:
// fixed latency plus serialisation at the bandwidth.
func transferTime(class LinkClass, size int) time.Duration {
	ser := time.Duration(float64(size) / class.BandwidthBps * float64(time.Second))
	return class.Latency + ser
}

// Send transmits payload from one node to a directly connected node. The
// message is delivered to the destination handler after the link's latency
// and serialisation delay, or silently dropped with the link's loss
// probability (the drop is still charged to the sender). Send returns an
// error immediately if the nodes are not connected.
func (n *Network) Send(from, to string, payload []byte) error {
	src := n.nodes[from]
	dst := n.nodes[to]
	if src == nil || dst == nil {
		return fmt.Errorf("netsim: send between unknown nodes %q -> %q", from, to)
	}
	if !n.connectedNodes(src, dst) {
		return &ErrUnreachable{From: from, To: to}
	}
	if src.exhausted() {
		return &ErrExhausted{Node: from}
	}
	n.transmit(src, dst, payload)
	return nil
}

// chargeHop is the one place a hop is paid for. The sender pays its own
// class's per-byte cost on transmission (the receiver pays its own on
// reception — a GPRS subscriber is billed for downlink bytes too), and
// serialisation runs at the pair's bottleneck bandwidth, slowed by any
// impairment's bandwidth factor. chargeHop then draws the hop's fate: class
// loss first, the impairment's drop/jitter only if that survived. A lost
// hop is counted on src and reported to DropHandler. air is the charged
// transfer time; jitter is extra delivery delay.
func (n *Network) chargeHop(src, dst *Node, size int) (air, jitter time.Duration, ok bool) {
	class := bottleneck(src.Class, dst.Class)
	// Resolve the adversity layer first: bandwidth degradation slows the
	// charged serialisation time, not just the delivery schedule.
	var imp Impairment
	impaired := false
	if n.impaired {
		if imp, impaired = n.impairmentFor(src, dst); impaired {
			if f := imp.BandwidthFactor; f > 0 && f < 1 {
				class.BandwidthBps *= f
			}
		}
	}
	air = transferTime(class, size)
	src.usage.BytesSent += int64(size)
	src.usage.MsgsSent++
	src.usage.Cost += src.Class.CostPerByte * float64(size)
	src.usage.Energy += src.Class.EnergyPerByte * float64(size)
	src.usage.Airtime += air

	lost := n.sim.Rand().Float64() < class.Loss
	if !lost && impaired {
		lost, jitter = n.applyImpairment(imp)
	}
	if lost {
		src.usage.MsgsLost++
		if n.DropHandler != nil {
			n.DropHandler(src.ID, dst.ID, size)
		}
		return air, 0, false
	}
	return air, jitter, true
}

// transmit charges a unicast hop and schedules delivery or loss. The payload
// is copied into a pooled buffer that deliver recycles.
func (n *Network) transmit(src, dst *Node, payload []byte) {
	size := len(payload)
	t, jitter, ok := n.chargeHop(src, dst, size)
	if !ok {
		return
	}
	data := n.getPayload(size)
	copy(data, payload)
	n.sim.scheduleDelivery(t+jitter, src, dst, data, t, true)
}

// deliver is the arrival half of a transmission, invoked by the simulator
// for each receiver of a typed delivery event: it re-checks the destination
// at delivery time (the node may have gone down, died of battery exhaustion
// or lost its handler in flight — or, within a broadcast run, at an earlier
// receiver's hands), charges reception, and runs the handler. Pooled
// (unicast) payloads are recycled once the handler returns, so handlers
// must copy any bytes they retain.
func (n *Network) deliver(src, d *Node, data []byte, air time.Duration, pooled bool) {
	if d.Up && d.handler != nil && !d.exhausted() {
		d.usage.BytesRecv += int64(len(data))
		d.usage.MsgsRecv++
		d.usage.Cost += d.Class.CostPerByte * float64(len(data))
		d.usage.Energy += d.Class.EnergyPerByte * float64(len(data))
		d.usage.Airtime += air
		d.handler(src.ID, data)
	}
	if pooled {
		n.putPayload(data)
	}
}

// getPayload returns a length-size buffer, reusing a recycled delivery
// buffer when one is large enough.
func (n *Network) getPayload(size int) []byte {
	if k := len(n.payloadFree); k > 0 {
		b := n.payloadFree[k-1]
		n.payloadFree[k-1] = nil
		n.payloadFree = n.payloadFree[:k-1]
		if cap(b) >= size {
			return b[:size]
		}
	}
	return make([]byte, size)
}

// putPayload recycles a delivered unicast buffer. Oversized buffers and an
// overfull list are dropped so the pool cannot pin unbounded memory.
func (n *Network) putPayload(b []byte) {
	if cap(b) == 0 || cap(b) > 64<<10 || len(n.payloadFree) >= 64 {
		return
	}
	n.payloadFree = append(n.payloadFree, b[:0])
}

// Broadcast transmits payload from a node to every current neighbor. It
// returns the number of neighbors targeted. Each receiver is charged and
// lost independently, but all receivers share one immutable payload copy,
// so handlers must not mutate delivered payloads. Receivers whose deliveries
// land on one instant back to back share one scheduler event (Sim.joinRun);
// a lost hop schedules nothing and does not break a run, anything scheduled
// in between (a DropHandler that calls Schedule) does.
func (n *Network) Broadcast(from string, payload []byte) int {
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
	var run *event
	for _, dst := range neighbors {
		air, jitter, ok := n.chargeHop(src, dst, len(data))
		if !ok {
			continue
		}
		delay := air + jitter
		if run == nil || !n.sim.joinRun(run, delay, dst, air) {
			run = n.sim.scheduleDelivery(delay, src, dst, data, air, false)
		}
	}
	return len(neighbors)
}

// SendRouted transmits payload along the current shortest path, charging
// every hop. It returns the hop count used, or an error if no path exists at
// send time (or the origin's battery is spent — the same loud failure Send
// gives; relays that die mid-path drop silently, like relays that go down).
// Intermediate hops are simulated store-and-forward relays.
func (n *Network) SendRouted(from, to string, payload []byte) (int, error) {
	path := n.Route(from, to)
	if path == nil {
		return 0, &ErrUnreachable{From: from, To: to}
	}
	if len(path) == 1 {
		return 0, fmt.Errorf("netsim: routed send to self %q", from)
	}
	if src := n.nodes[from]; src != nil && src.exhausted() {
		return 0, &ErrExhausted{Node: from}
	}
	n.forwardAlong(path, payload)
	return len(path) - 1, nil
}

// forwardAlong performs hop-by-hop transmission with per-hop delay. Each hop
// is charged when it occurs; if the topology changed and a hop is no longer
// connected, the message is re-routed from the current position, and dropped
// if no route remains.
func (n *Network) forwardAlong(path []string, payload []byte) {
	if len(path) < 2 {
		return
	}
	src, dst := n.nodes[path[0]], n.nodes[path[1]]
	if src == nil || dst == nil || src.exhausted() {
		return
	}
	if !n.connectedNodes(src, dst) {
		if rerouted := n.Route(path[0], path[len(path)-1]); rerouted != nil {
			n.forwardAlong(rerouted, payload)
		}
		return
	}
	if len(path) == 2 {
		n.transmit(src, dst, payload)
		return
	}
	// Relay hop: charge the link, then continue after the transfer delay.
	size := len(payload)
	t, jitter, ok := n.chargeHop(src, dst, size)
	if !ok {
		return
	}
	rest := make([]string, len(path)-1)
	copy(rest, path[1:])
	n.sim.Schedule(t+jitter, func() {
		if !dst.Up || dst.exhausted() {
			return
		}
		dst.usage.BytesRecv += int64(size)
		dst.usage.MsgsRecv++
		dst.usage.Energy += dst.Class.EnergyPerByte * float64(size)
		n.forwardAlong(rest, payload)
	})
}

// TotalUsage sums the usage of all nodes.
func (n *Network) TotalUsage() Usage {
	var total Usage
	for _, node := range n.list {
		total.Add(node.usage)
	}
	return total
}

// UsageOf returns the usage account of one node.
func (n *Network) UsageOf(id string) Usage {
	if node := n.nodes[id]; node != nil {
		return node.usage
	}
	return Usage{}
}

// ResetUsage zeroes all traffic accounts, e.g. after a warm-up phase.
func (n *Network) ResetUsage() {
	for _, node := range n.list {
		node.usage = Usage{}
	}
}
