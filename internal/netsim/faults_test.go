package netsim

import (
	"fmt"
	"testing"
	"time"
	"unsafe"
)

// twoNodes builds a minimal connected pair with counting handlers.
func twoNodes(seed int64) (*Sim, *Network, *int, *int) {
	sim := NewSim(seed)
	net := NewNetwork(sim)
	class := AdHoc
	class.Loss = 0
	net.AddNode("a", Position{}, class)
	net.AddNode("b", Position{X: 10}, class)
	recvA, recvB := new(int), new(int)
	net.SetHandler("a", func(string, []byte) { *recvA++ })
	net.SetHandler("b", func(string, []byte) { *recvB++ })
	return sim, net, recvA, recvB
}

// TestImpairmentDrop checks that an impairment's extra drop probability
// loses roughly that fraction of messages, that drops are charged to the
// sender's loss account, and that the fault counter agrees.
func TestImpairmentDrop(t *testing.T) {
	sim, net, _, recvB := twoNodes(1)
	net.ImpairAll(Impairment{Drop: 0.5})
	const sends = 2000
	for i := 0; i < sends; i++ {
		if err := net.Send("a", "b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunUntilIdle(0)
	u := net.TotalUsage()
	if u.MsgsRecv+u.MsgsLost != u.MsgsSent {
		t.Fatalf("accounting broken: recv %d + lost %d != sent %d", u.MsgsRecv, u.MsgsLost, u.MsgsSent)
	}
	fs := net.FaultStats()
	if fs.Drops != u.MsgsLost {
		t.Fatalf("fault drops %d != msgs lost %d (class loss is zero)", fs.Drops, u.MsgsLost)
	}
	got := float64(*recvB) / sends
	if got < 0.4 || got > 0.6 {
		t.Fatalf("delivery ratio %.3f, want ~0.5 under Drop=0.5", got)
	}
}

// TestImpairmentJitterDelaysDelivery checks that jitter postpones delivery
// by whole ticks without changing the charged airtime.
func TestImpairmentJitterDelaysDelivery(t *testing.T) {
	sim, net, _, _ := twoNodes(2)
	tick := 250 * time.Millisecond
	net.ImpairAll(Impairment{JitterTicks: 4, JitterTick: tick})
	base := transferTime(bottleneck(net.Node("a").Class, net.Node("b").Class), 1)

	var deliveredAt []time.Duration
	net.SetHandler("b", func(string, []byte) { deliveredAt = append(deliveredAt, sim.Now()) })
	const sends = 200
	for i := 0; i < sends; i++ {
		if err := net.Send("a", "b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunUntilIdle(0)
	if len(deliveredAt) != sends {
		t.Fatalf("delivered %d, want %d (jitter must not drop)", len(deliveredAt), sends)
	}
	sawJitter := false
	for _, at := range deliveredAt {
		extra := at - base
		if extra < 0 || extra > 4*tick {
			t.Fatalf("delivery at %v outside [base, base+4 ticks]", at)
		}
		if extra%tick != 0 {
			t.Fatalf("jitter %v is not a whole number of %v ticks", extra, tick)
		}
		if extra > 0 {
			sawJitter = true
		}
	}
	if !sawJitter {
		t.Fatal("no message was jittered in 200 sends with JitterTicks=4")
	}
	if net.TotalUsage().Airtime != time.Duration(sends)*base*2 {
		// Airtime is charged to both endpoints; jitter is queueing delay,
		// not radio occupancy, and must not inflate it.
		t.Fatalf("airtime %v includes jitter (want %v)", net.TotalUsage().Airtime, time.Duration(sends)*base*2)
	}
}

// TestImpairmentBandwidthDegradation checks that a bandwidth factor slows
// the charged serialisation time.
func TestImpairmentBandwidthDegradation(t *testing.T) {
	_, net, _, _ := twoNodes(3)
	payload := make([]byte, 9000)
	clean := transferTime(bottleneck(net.Node("a").Class, net.Node("b").Class), len(payload))
	if err := net.Send("a", "b", payload); err != nil {
		t.Fatal(err)
	}
	cleanAirtime := net.UsageOf("a").Airtime
	if cleanAirtime != clean {
		t.Fatalf("clean airtime %v, want %v", cleanAirtime, clean)
	}
	net.ImpairAll(Impairment{BandwidthFactor: 0.5})
	if err := net.Send("a", "b", payload); err != nil {
		t.Fatal(err)
	}
	degraded := net.UsageOf("a").Airtime - cleanAirtime
	if degraded <= cleanAirtime {
		t.Fatalf("degraded airtime %v not slower than clean %v at factor 0.5", degraded, cleanAirtime)
	}
}

// TestImpairmentComposition checks the composed effect of overlapping
// rules: drops compose independently, jitter takes the max, bandwidth
// multiplies.
func TestImpairmentComposition(t *testing.T) {
	got := composeImpairments(
		Impairment{Drop: 0.5, JitterTicks: 2, BandwidthFactor: 0.5},
		Impairment{Drop: 0.5, JitterTicks: 5, BandwidthFactor: 0.4},
	)
	if got.Drop != 0.75 {
		t.Errorf("composed drop %v, want 0.75", got.Drop)
	}
	if got.JitterTicks != 5 {
		t.Errorf("composed jitter ticks %d, want 5", got.JitterTicks)
	}
	if got.BandwidthFactor != 0.2 {
		t.Errorf("composed bandwidth factor %v, want 0.2", got.BandwidthFactor)
	}
	if !composeImpairments(Impairment{}, Impairment{}).IsZero() {
		t.Error("zero ∘ zero is not zero")
	}
	// Composing an extra rule must never reduce the jitter bound: an
	// explicit small tick (1x10ms) loses to 2 ticks at the implicit 100ms
	// default, in either composition order.
	big := Impairment{JitterTicks: 2}
	small := Impairment{JitterTicks: 1, JitterTick: 10 * time.Millisecond}
	for _, c := range []Impairment{composeImpairments(big, small), composeImpairments(small, big)} {
		if bound := time.Duration(c.JitterTicks) * c.jitterTick(); bound != 200*time.Millisecond {
			t.Errorf("composed jitter bound %v, want 200ms (worse bound must win)", bound)
		}
	}
	// Out-of-contract factors normalise to "unchanged" at the setters: a
	// speedup request must not mark the network impaired.
	{
		_, net, _, _ := twoNodes(9)
		net.ImpairAll(Impairment{BandwidthFactor: 2})
		if net.impaired {
			t.Error("BandwidthFactor=2 marked the network impaired")
		}
		net.ImpairNode("a", Impairment{BandwidthFactor: 1.5, Drop: -0.3, JitterTicks: -2})
		if len(net.impNode) != 0 {
			t.Error("all-nonsense node rule was stored instead of normalised away")
		}
	}
	// Scoped rules: the impaired pair is degraded, an unrelated pair is not.
	_, net, _, _ := twoNodes(4)
	net.AddNode("c", Position{Y: 10}, net.Node("a").Class)
	net.ImpairLink("a", "b", Impairment{Drop: 0.999999})
	if imp, on := net.impairmentFor(net.Node("a"), net.Node("b")); !on || imp.Drop == 0 {
		t.Fatal("pair rule not resolved for a-b")
	}
	if _, on := net.impairmentFor(net.Node("a"), net.Node("c")); on {
		t.Fatal("pair rule for a-b leaked onto a-c")
	}
	// A node added after the per-node table was made lies past its end: it
	// has no rule, and giving it one grows the table.
	net.ImpairNode("a", Impairment{Drop: 0.5})
	net.AddNode("d", Position{Y: 20}, net.Node("a").Class)
	if _, on := net.impairmentFor(net.Node("c"), net.Node("d")); on {
		t.Fatal("node rule for a leaked onto c-d")
	}
	net.ImpairNode("d", Impairment{JitterTicks: 2})
	if imp, _ := net.impairmentFor(net.Node("a"), net.Node("d")); imp.Drop != 0.5 || imp.JitterTicks != 2 {
		t.Fatalf("a-d resolves to %+v, want a's drop composed with d's jitter", imp)
	}
}

// TestFaultLayerInert is the inertness proof at the netsim level: with no
// impairments, churn or partitions, the fault RNG is never created and the
// main RNG stream is byte-identical to a run that injects faults through a
// *different* network. (The harness-level proof is the goldens staying
// byte-identical; this pins the mechanism.)
func TestFaultLayerInert(t *testing.T) {
	run := func(impair bool) Usage {
		sim, net, _, _ := twoNodes(7)
		if impair {
			// Exercise set-then-remove: a cleared rule set must be inert too.
			net.ImpairAll(Impairment{Drop: 0.9})
			net.ImpairNode("a", Impairment{JitterTicks: 3})
			net.ImpairAll(Impairment{})
			net.ImpairNode("a", Impairment{})
		}
		for i := 0; i < 300; i++ {
			_ = net.Send("a", "b", make([]byte, 50))
		}
		sim.RunUntilIdle(0)
		if impair && net.faultRNG != nil {
			t.Fatal("fault RNG was created despite all rules removed")
		}
		return net.TotalUsage()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("cleared fault rules perturbed the run:\n%+v\n%+v", a, b)
	}
}

// TestFaultSeedIndependence checks that the fault stream is independent of
// the main stream: the same fault seed reproduces the same drops, a
// different fault seed produces different drops, and neither touches the
// main RNG sequence.
func TestFaultSeedIndependence(t *testing.T) {
	run := func(faultSeed int64) (Usage, float64) {
		sim, net, _, _ := twoNodes(11)
		net.SetFaultSeed(faultSeed)
		net.ImpairAll(Impairment{Drop: 0.3})
		for i := 0; i < 500; i++ {
			_ = net.Send("a", "b", make([]byte, 20))
		}
		sim.RunUntilIdle(0)
		return net.TotalUsage(), sim.Rand().Float64() // main RNG position probe
	}
	u1, main1 := run(42)
	u2, main2 := run(42)
	u3, main3 := run(43)
	if u1 != u2 {
		t.Fatalf("same fault seed diverged:\n%+v\n%+v", u1, u2)
	}
	if u1.MsgsLost == u3.MsgsLost && u1.MsgsRecv == u3.MsgsRecv {
		t.Fatalf("different fault seeds produced identical loss patterns: %+v", u1)
	}
	if main1 != main2 || main1 != main3 {
		t.Fatalf("fault draws perturbed the main RNG stream: %v %v %v", main1, main2, main3)
	}
}

// TestPartitionSeversGroups checks that partition groups cut links in both
// directions, across classes (even infrastructure), bump the epoch, and
// heal completely.
func TestPartitionSeversGroups(t *testing.T) {
	sim := NewSim(5)
	net := NewNetwork(sim)
	class := AdHoc
	class.Loss = 0
	class.Range = 1000
	net.AddNode("a", Position{}, class)
	net.AddNode("b", Position{X: 10}, class)
	net.AddNode("lan", Position{X: 20}, LAN)
	if !net.Connected("a", "b") || !net.Connected("a", "lan") {
		t.Fatal("precondition: all connected")
	}
	before := net.TopologyEpoch()
	net.SetPartitionGroup("a", 1)
	if net.TopologyEpoch() == before {
		t.Fatal("partition did not advance the topology epoch")
	}
	if net.Connected("a", "b") || net.Connected("b", "a") {
		t.Fatal("a (group 1) still reaches b (group 0)")
	}
	if net.Connected("a", "lan") {
		t.Fatal("partition did not sever the infrastructure link")
	}
	if !net.Connected("b", "lan") {
		t.Fatal("partition leaked onto same-group pair b-lan")
	}
	net.SetPartitionGroup("b", 1)
	if !net.Connected("a", "b") {
		t.Fatal("same nonzero group must communicate")
	}
	// Idempotent assignment must not advance the epoch.
	at := net.TopologyEpoch()
	net.SetPartitionGroup("b", 1)
	if net.TopologyEpoch() != at {
		t.Fatal("idempotent partition assignment advanced the epoch")
	}
	net.ClearPartitions()
	if !net.Connected("a", "lan") || !net.Connected("a", "b") {
		t.Fatal("ClearPartitions did not heal")
	}
	if net.PartitionGroup("a") != 0 {
		t.Fatal("group not reset by ClearPartitions")
	}
}

// TestNodeAddedAfterPartitionIsDefaultGroup: the group table is as long as
// the node list was at the last assignment, and a node past its end is in
// group 0 — severed from every assigned group, connected to ungrouped peers.
func TestNodeAddedAfterPartitionIsDefaultGroup(t *testing.T) {
	net := NewNetwork(NewSim(5))
	class := AdHoc
	class.Range = 1000
	for i, id := range []string{"g1", "g2", "free"} {
		net.AddNode(id, Position{X: float64(i)}, class)
	}
	net.SetPartitionGroup("g1", 1)
	net.SetPartitionGroup("g2", 2)
	net.AddNode("late", Position{X: 3}, class)
	if g := net.PartitionGroup("late"); g != 0 {
		t.Fatalf("newcomer is in group %d, want the default", g)
	}
	if net.Connected("late", "g1") || net.Connected("g2", "late") {
		t.Fatal("newcomer (group 0) reaches an assigned group")
	}
	if !net.Connected("late", "free") {
		t.Fatal("newcomer is cut off from an ungrouped peer")
	}
	// Assigning the newcomer grows the table rather than indexing past it.
	net.SetPartitionGroup("late", 1)
	if !net.Connected("late", "g1") || net.Connected("late", "free") {
		t.Fatal("newcomer did not move to group 1")
	}
	net.ClearPartitions()
	for _, id := range []string{"g1", "g2", "free"} {
		if !net.Connected("late", id) {
			t.Fatalf("ClearPartitions left late severed from %s", id)
		}
	}
}

// TestFaultFreeNetworkHoldsNoFaultState: a world that injects no fault
// allocates none of the layer's per-node tables and no fault RNG, however
// large it grows, and Node carries no field for them (288 bytes is its
// allocation size class; one more word moves every node to 320).
func TestFaultFreeNetworkHoldsNoFaultState(t *testing.T) {
	sim := NewSim(1)
	net := NewNetwork(sim)
	names := make([]string, 10000)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
		net.AddNode(names[i], Position{X: float64(i % 100), Y: float64(i / 100)}, AdHoc)
	}
	net.StartMobility(&RandomWaypoint{FieldW: 100, FieldH: 100, SpeedMin: 1, SpeedMax: 2}, time.Second, names...)
	sim.RunFor(time.Second)
	if net.parts != nil || net.impNode != nil || net.faultRNG != nil || net.impaired {
		t.Fatalf("fault-free network holds fault state: parts=%v impNode=%v rng=%v impaired=%v",
			net.parts != nil, net.impNode != nil, net.faultRNG != nil, net.impaired)
	}
	if got := unsafe.Sizeof(Node{}); got > 288 {
		t.Fatalf("Node is %d bytes, want <= 288", got)
	}
}

// TestChurnUnknownIDKeepsItsSlot: members resolve once, and an ID that names
// no node still occupies its index, so the others keep the duty phases —
// slices 1 and 2 of 3 — that the member list declares. A node that takes the
// ghost's name afterwards is not a member.
func TestChurnUnknownIDKeepsItsSlot(t *testing.T) {
	sim := NewSim(8)
	net := NewNetwork(sim)
	net.AddNode("a", Position{}, AdHoc)
	net.AddNode("b", Position{X: 1}, AdHoc)
	const period, on = 9 * time.Second, 6 * time.Second
	churn := net.StartChurn(ChurnSchedule{Tick: time.Second, DutyPeriod: period, DutyOn: on}, "ghost", "a", "b")
	net.AddNode("ghost", Position{X: 2}, AdHoc)
	slept := 0
	for i := 0; i < 3*9; i++ {
		sim.RunFor(time.Second)
		for idx, id := range []string{"ghost", "a", "b"} {
			phase := period * time.Duration(idx) / 3
			wantOff := id != "ghost" && (sim.Now()+phase)%period >= on
			if off := !net.Node(id).Up; off != wantOff {
				t.Fatalf("t=%v: %s off=%v, want %v (member index %d of 3)", sim.Now(), id, off, wantOff, idx)
			}
			if wantOff {
				slept++
			}
		}
	}
	if slept == 0 {
		t.Fatal("vacuous: nobody slept in three periods")
	}
	churn.Stop()
}

// TestChurnCrashAndRejoin checks that churn takes nodes down, brings them
// back after the configured downtime, and accounts crashes/rejoins and mean
// time-to-repair.
func TestChurnCrashAndRejoin(t *testing.T) {
	sim := NewSim(6)
	net := NewNetwork(sim)
	class := AdHoc
	class.Loss = 0
	names := make([]string, 20)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
		net.AddNode(names[i], Position{X: float64(i)}, class)
	}
	churn := net.StartChurn(ChurnSchedule{
		Tick: 5 * time.Second, CrashProb: 0.3, Downtime: 12 * time.Second,
	}, names...)
	sawDown := false
	for i := 0; i < 60; i++ {
		sim.RunFor(5 * time.Second)
		for _, id := range names {
			if !net.Node(id).Up {
				sawDown = true
			}
		}
	}
	churn.Stop()
	sim.RunFor(time.Minute) // drain pending rejoins
	if !sawDown {
		t.Fatal("no node ever crashed at CrashProb=0.3 over 60 ticks")
	}
	st := churn.Stats
	if st.Crashes == 0 || st.Crashes != st.Rejoins {
		t.Fatalf("crashes %d, rejoins %d: every crash must rejoin after the run drains", st.Crashes, st.Rejoins)
	}
	if mttr := st.Downtime / time.Duration(st.Rejoins); mttr != 12*time.Second {
		t.Fatalf("mean time-to-repair %v, want 12s", mttr)
	}
	for _, id := range names {
		if !net.Node(id).Up {
			t.Fatalf("%s still down after churn stopped and rejoins drained", id)
		}
	}
}

// TestChurnDutyCycle checks deterministic duty-cycling: some nodes are
// always asleep mid-period, everyone is up within a period of stopping, and
// zero RNG is consumed (duty cycling alone must not create the fault RNG).
func TestChurnDutyCycle(t *testing.T) {
	sim := NewSim(8)
	net := NewNetwork(sim)
	class := AdHoc
	class.Loss = 0
	names := make([]string, 10)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
		net.AddNode(names[i], Position{X: float64(i)}, class)
	}
	churn := net.StartChurn(ChurnSchedule{
		Tick: time.Second, DutyPeriod: 10 * time.Second, DutyOn: 6 * time.Second,
	}, names...)
	downSeen := 0
	for i := 0; i < 40; i++ {
		sim.RunFor(time.Second)
		for _, id := range names {
			if !net.Node(id).Up {
				downSeen++
			}
		}
	}
	if downSeen == 0 {
		t.Fatal("duty cycle never put a radio to sleep")
	}
	if net.faultRNG != nil {
		t.Fatal("deterministic duty cycling consumed fault RNG")
	}
	churn.Stop()
}

// TestChurnDeterministicAcrossWorkers runs a mobile, churning, impaired
// field at workers=1 and workers=4 and requires identical traffic, fault
// and churn accounting — the netsim-level half of the chaos differential.
func TestChurnDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (Usage, FaultStats, ChurnStats, uint64) {
		sim := NewSim(99)
		net := NewNetwork(sim)
		net.SetWorkers(workers)
		class := AdHoc
		class.Loss = 0.01
		names := make([]string, 60)
		for i := range names {
			names[i] = fmt.Sprintf("n%d", i)
			net.AddNode(names[i], Position{X: sim.Rand().Float64() * 200, Y: sim.Rand().Float64() * 200}, class)
			net.SetHandler(names[i], func(string, []byte) {})
		}
		net.ImpairAll(Impairment{Drop: 0.1, JitterTicks: 3, JitterTick: 100 * time.Millisecond})
		net.StartMobility(&RandomWaypoint{FieldW: 200, FieldH: 200, SpeedMin: 1, SpeedMax: 4, Pause: time.Second},
			time.Second, names...)
		churn := net.StartChurn(ChurnSchedule{Tick: 5 * time.Second, CrashProb: 0.05, Downtime: 8 * time.Second}, names...)
		// Periodic broadcasts so the fault layer sees traffic while nodes move.
		var tick func()
		step := 0
		tick = func() {
			step++
			if step > 90 {
				return
			}
			src := names[step%len(names)]
			if net.Node(src).Up {
				net.Broadcast(src, make([]byte, 64))
			}
			if step == 30 {
				for i, id := range names {
					net.SetPartitionGroup(id, 1+i%2)
				}
			}
			if step == 60 {
				net.ClearPartitions()
			}
			sim.Schedule(time.Second, tick)
		}
		sim.Schedule(time.Second, tick)
		sim.Run(2 * time.Minute)
		return net.TotalUsage(), net.FaultStats(), churn.Stats, net.TopologyEpoch()
	}
	u1, f1, c1, e1 := run(1)
	u4, f4, c4, e4 := run(4)
	if u1 != u4 || f1 != f4 || c1 != c4 || e1 != e4 {
		t.Fatalf("faulty run diverges across worker counts:\nw=1: %+v %+v %+v epoch %d\nw=4: %+v %+v %+v epoch %d",
			u1, f1, c1, e1, u4, f4, c4, e4)
	}
	if f1.Drops == 0 || c1.Crashes == 0 {
		t.Fatalf("differential vacuous: drops=%d crashes=%d", f1.Drops, c1.Crashes)
	}
}

// TestChurnTickAllocs pins a warm churn tick at zero allocations: the tick
// re-arms its one timer from the timer's own callback. The schedule only
// duty-cycles (a crash's rejoin is a one-shot Schedule, which allocates), so
// every tick still walks each member and some flip.
func TestChurnTickAllocs(t *testing.T) {
	sim := NewSim(8)
	net := NewNetwork(sim)
	names := []string{"a", "b", "c"}
	for i, id := range names {
		net.AddNode(id, Position{X: float64(i)}, AdHoc)
	}
	churn := net.StartChurn(ChurnSchedule{Tick: time.Second, DutyPeriod: 9 * time.Second, DutyOn: 6 * time.Second}, names...)
	tick := func() { sim.RunFor(time.Second) }
	for i := 0; i < 1000; i++ {
		tick()
	}
	flips := 0
	up := net.Node("a").Up
	count := func() {
		tick()
		if net.Node("a").Up != up {
			up = !up
			flips++
		}
	}
	if got := testing.AllocsPerRun(200, count); got != 0 {
		t.Errorf("a warm churn tick allocates %v times, want 0", got)
	}
	if flips == 0 {
		t.Error("vacuous: no member changed state")
	}
	churn.Stop()
	if sim.RunUntilIdle(0); sim.Pending() != 0 {
		t.Errorf("%d events pending after Stop and a drain", sim.Pending())
	}
}
