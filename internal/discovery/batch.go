package discovery

import (
	"time"

	"logmob/internal/transport"
)

// BeaconBatch is the beacon cadence: it drives every beacon sharing one
// interval from a single scheduler callback. A city of beaconing hosts
// would otherwise keep one timer record and one re-arm closure per host
// alive in the scheduler at all times; the batch keeps exactly one, and
// broadcasts for its members in the order they were added (worlds add in
// canonical node order). Members also share one frameMemo, so a frame n of
// them hear is decoded once, not n times. A lone beacon is a batch of one
// (see Beacon.Start).
//
// Per member: the first beacon goes out the moment the member is added or
// started, the neighbor-table sweep runs on the shared tick, and a member that Stops
// is skipped until Start rejoins it — hosts churned down and back up
// resume beaconing without any per-host timer state. The timer is armed
// exactly while at least one member is running: stopping the last one
// cancels it (a stopped beacon leaves no live event in the scheduler), and
// the next Start re-arms it one interval out.
type BeaconBatch struct {
	sched    transport.Scheduler
	interval time.Duration
	members  []*Beacon
	running  int             // members currently running
	memo     frameMemo       // decoded frames, shared by every member
	timer    transport.Timer // the shared tick, made by the first start; armed while running > 0
}

// NewBeaconBatch returns an empty batch broadcasting every interval.
func NewBeaconBatch(sched transport.Scheduler, interval time.Duration) *BeaconBatch {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	return &BeaconBatch{sched: sched, interval: interval, memo: make(frameMemo)}
}

// Add registers b and starts it under the batch's cadence: the first beacon
// broadcasts immediately, subsequent ones ride the shared tick. b must have
// been built with the batch's interval — the batch drives when beacons go
// out, but miss-eviction deadlines and TTL defaults still read b.interval.
// A beacon already started on its own is adopted out of its private batch
// of one.
func (g *BeaconBatch) Add(b *Beacon) {
	if b.interval != g.interval {
		panic("discovery: beacon interval differs from its batch")
	}
	if b.batch == g {
		return
	}
	if old := b.batch; old != nil {
		if len(old.members) != 1 {
			panic("discovery: beacon already owned by another batch")
		}
		b.Stop()
		old.members = nil
	}
	b.batch = g
	b.memo = g.memo // frames b already holds stay valid; they just are not g's to release
	g.members = append(g.members, b)
	g.start(b)
}

// start marks a stopped member running, broadcasts its immediate beacon and
// arms the shared timer if no other member kept it armed.
func (g *BeaconBatch) start(b *Beacon) {
	b.running = true
	g.running++
	b.tickOnce()
	if g.running == 1 {
		if g.timer == nil {
			g.timer = g.sched.NewTimer(g.tick)
		}
		g.timer.Reset(g.interval)
	}
}

// stopped accounts for one member that just stopped running.
func (g *BeaconBatch) stopped() {
	if g.running--; g.running == 0 {
		g.timer.Stop()
	}
}

func (g *BeaconBatch) tick() {
	for _, b := range g.members {
		if b.running {
			b.tickOnce()
		}
	}
	g.timer.Reset(g.interval)
}

// Len returns the number of registered members, running or not.
func (g *BeaconBatch) Len() int { return len(g.members) }

// Stop halts every member, and with the last of them the shared cadence.
// Members can be restarted individually.
func (g *BeaconBatch) Stop() {
	for _, b := range g.members {
		b.Stop()
	}
}
