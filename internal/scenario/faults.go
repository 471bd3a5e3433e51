package scenario

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"logmob/internal/metrics"
	"logmob/internal/netsim"
	"logmob/internal/transport"
)

// Faults is the declarative adversity layer of a Spec: link impairments,
// node churn, timed partitions, transport ack/retry and beacon-miss
// eviction, compiled into the world alongside the populations.
//
// The zero value is inert by construction: compiling a Spec with zero
// Faults touches neither the fault RNG nor any hot path, so fault-free runs
// are byte-identical to a build without the adversity layer (the golden
// tests enforce this). All random fault decisions draw from a dedicated
// seeded RNG, so for a fixed (seed, Seed) pair a faulty run is exactly
// reproducible — and bit-identical at any worker count.
type Faults struct {
	// Seed offsets the dedicated fault RNG stream: same world seed +
	// different fault seed = same placement and mobility, different fault
	// realisation. 0 derives the stream from the world seed alone.
	Seed int64

	// Impairment degrades every link in the world, composing with any
	// per-population Links rules.
	netsim.Impairment

	// Links impairs the links of specific populations.
	Links []LinkFault
	// Churn crashes/rejoins and duty-cycles specific populations.
	Churn []ChurnFault
	// Partitions are timed split-then-heal events.
	Partitions []PartitionFault
	// Events rewrite the world-wide impairment mid-run (escalating loss, a
	// clearing storm).
	Events []FaultEvent

	// Retry wraps every host endpoint in a budgeted ack/retry transport
	// layer (transport.Reliable). Zero disables it.
	Retry RetryFault
	// BeaconMissEvict, when positive, makes every compiled beacon evict a
	// neighbor's cached ads after that many silent beacon intervals.
	BeaconMissEvict int
}

// LinkFault impairs every link touching the members of one population.
type LinkFault struct {
	// Pop names the impaired population.
	Pop string
	netsim.Impairment
}

// ChurnFault runs a netsim.ChurnSchedule over one population.
type ChurnFault struct {
	// Pop names the churned population.
	Pop string
	netsim.ChurnSchedule
}

// PartitionFault splits the world into two non-communicating groups during
// [At, Heal), measured in virtual time from world start (warmup included):
// nodes west of x=SplitX versus the rest, membership snapshotted at At (a
// node that roams across the line afterwards stays in its group, like a
// crowd split by jamming).
type PartitionFault struct {
	At, Heal time.Duration
	SplitX   float64
}

// FaultEvent replaces the world-wide impairment at a point in virtual time
// (from world start). A zero Impairment means "no impairment from here on",
// so an event can also clear an earlier one.
type FaultEvent struct {
	At time.Duration
	netsim.Impairment
}

// RetryFault configures the ack/retry transport layer (transport.Reliable);
// a zero Budget leaves it off.
type RetryFault = transport.ReliableConfig

// IsZero reports whether the fault block changes nothing.
func (f *Faults) IsZero() bool {
	return f.Seed == 0 && f.Impairment.IsZero() &&
		len(f.Links) == 0 && len(f.Churn) == 0 && len(f.Partitions) == 0 &&
		len(f.Events) == 0 && f.Retry.Budget == 0 && f.BeaconMissEvict == 0
}

// --- validation ---

// ErrInvalidSpec wraps every validation failure.
var ErrInvalidSpec = errors.New("scenario: invalid spec")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidSpec, fmt.Sprintf(format, args...))
}

// maxPopulation caps a single population so hostile specs cannot demand
// worlds that exhaust memory before any simulation runs.
const maxPopulation = 200000

func validProb(p float64) bool  { return !math.IsNaN(p) && p >= 0 && p < 1 }
func validRatio(f float64) bool { return !math.IsNaN(f) && f >= 0 && f <= 1 }

func validImpairment(what string, im netsim.Impairment) error {
	if !validProb(im.Drop) {
		return invalidf("%s drop probability %v outside [0,1)", what, im.Drop)
	}
	if im.JitterTicks < 0 || im.JitterTicks > 1<<20 {
		return invalidf("%s jitter ticks %d outside [0, 2^20]", what, im.JitterTicks)
	}
	if im.JitterTick < 0 {
		return invalidf("%s jitter tick %v negative", what, im.JitterTick)
	}
	if !validRatio(im.BandwidthFactor) {
		return invalidf("%s bandwidth factor %v outside [0,1]", what, im.BandwidthFactor)
	}
	return nil
}

// validate checks the fault block against the spec's populations.
func (f *Faults) validate(pops map[string]bool) error {
	if err := validImpairment("global", f.Impairment); err != nil {
		return err
	}
	linkPops := make(map[string]bool, len(f.Links))
	for i, l := range f.Links {
		if !pops[l.Pop] {
			return invalidf("link fault %d names unknown population %q", i, l.Pop)
		}
		if linkPops[l.Pop] {
			// Per-population node rules replace, not compose: a second
			// entry would silently discard the first. Declare the combined
			// impairment in one entry instead.
			return invalidf("population %q has more than one link fault", l.Pop)
		}
		linkPops[l.Pop] = true
		if err := validImpairment(fmt.Sprintf("link fault %d", i), l.Impairment); err != nil {
			return err
		}
	}
	for i, c := range f.Churn {
		if !pops[c.Pop] {
			return invalidf("churn fault %d names unknown population %q", i, c.Pop)
		}
		if !validProb(c.CrashProb) {
			return invalidf("churn fault %d crash probability %v outside [0,1)", i, c.CrashProb)
		}
		if c.Tick < 0 || c.Downtime < 0 || c.DutyPeriod < 0 || c.DutyOn < 0 {
			return invalidf("churn fault %d has a negative duration", i)
		}
		if c.DowntimeJitterTicks < 0 || c.DowntimeJitterTicks > 1<<20 {
			return invalidf("churn fault %d downtime jitter %d outside [0, 2^20]", i, c.DowntimeJitterTicks)
		}
		if c.DutyOn > c.DutyPeriod {
			return invalidf("churn fault %d duty-on %v exceeds duty period %v", i, c.DutyOn, c.DutyPeriod)
		}
		if c.DutyPeriod > 0 {
			// The square wave is sampled once per churn tick; a period that
			// does not span multiple ticks aliases into a frozen on/off
			// pattern instead of a duty cycle.
			if tick := c.Interval(); c.DutyPeriod <= tick {
				return invalidf("churn fault %d duty period %v does not exceed the %v churn tick", i, c.DutyPeriod, tick)
			}
		}
	}
	windows := make([]PartitionFault, len(f.Partitions))
	copy(windows, f.Partitions)
	sort.Slice(windows, func(i, j int) bool { return windows[i].At < windows[j].At })
	for i, p := range windows {
		if p.At < 0 {
			return invalidf("partition %d starts at negative time %v", i, p.At)
		}
		if p.Heal <= p.At {
			return invalidf("partition %d heals at %v, not after its start %v", i, p.Heal, p.At)
		}
		if math.IsNaN(p.SplitX) || math.IsInf(p.SplitX, 0) || p.SplitX <= 0 {
			return invalidf("partition %d split line %v is not a positive finite coordinate", i, p.SplitX)
		}
		if i > 0 && p.At < windows[i-1].Heal {
			return invalidf("partition windows overlap: [%v,%v) and [%v,%v)",
				windows[i-1].At, windows[i-1].Heal, p.At, p.Heal)
		}
	}
	for i, e := range f.Events {
		if e.At < 0 {
			return invalidf("fault event %d at negative time %v", i, e.At)
		}
		if err := validImpairment(fmt.Sprintf("fault event %d", i), e.Impairment); err != nil {
			return err
		}
	}
	if f.Retry.Budget < 0 || f.Retry.Budget > 1000 {
		return invalidf("retry budget %d outside [0,1000]", f.Retry.Budget)
	}
	if f.Retry.Timeout < 0 {
		return invalidf("retry timeout %v negative", f.Retry.Timeout)
	}
	if f.BeaconMissEvict < 0 {
		return invalidf("beacon miss-evict %d negative", f.BeaconMissEvict)
	}
	return nil
}

// Validate checks the whole spec — populations, field, durations and the
// fault block — returning an error instead of letting Compile panic on
// hostile input. CompileChecked is the validating entry point.
func (s *Spec) Validate() error {
	if !validFinite(s.Field.Width) || !validFinite(s.Field.Height) {
		return invalidf("field %gx%g is not finite and non-negative", s.Field.Width, s.Field.Height)
	}
	if s.Warmup < 0 || s.Duration < 0 {
		return invalidf("negative warmup %v or duration %v", s.Warmup, s.Duration)
	}
	popNames := make(map[string]bool, len(s.Populations))
	nodeNames := make(map[string]bool)
	for pi := range s.Populations {
		p := &s.Populations[pi]
		if p.Name == "" {
			return invalidf("population %d has no name", pi)
		}
		if popNames[p.Name] {
			return invalidf("duplicate population name %q", p.Name)
		}
		popNames[p.Name] = true
		if p.Count < 0 {
			return invalidf("population %q has negative count %d", p.Name, p.Count)
		}
		if p.Count > maxPopulation {
			return invalidf("population %q count %d exceeds the %d cap", p.Name, p.Count, maxPopulation)
		}
		if !validFinite(p.Range) {
			return invalidf("population %q range %v is not finite and non-negative", p.Name, p.Range)
		}
		if !validFinite(p.EnergyBudget) {
			return invalidf("population %q energy budget %v is not finite and non-negative", p.Name, p.EnergyBudget)
		}
		if p.Beacon < 0 || p.MobilityTick < 0 {
			return invalidf("population %q has a negative interval", p.Name)
		}
		count := p.Count
		if count <= 0 {
			count = 1
		}
		for i := 0; i < count; i++ {
			name := p.nodeName(i)
			if nodeNames[name] {
				return invalidf("node name %q collides across populations", name)
			}
			nodeNames[name] = true
		}
	}
	if err := s.Faults.validate(popNames); err != nil {
		return err
	}
	return s.Sense.validate(popNames)
}

func validFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }

// CompileChecked is Compile behind Validate: hostile specs (negative
// populations, NaN loss rates, overlapping partition windows, colliding
// names) return an error instead of panicking.
func (s *Spec) CompileChecked(seed int64) (*World, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.Compile(seed), nil
}

// --- compilation ---

// compile wires the fault block into a fully built world (all populations,
// beacons and mobility in place). It panics on an invalid block — use
// Validate/CompileChecked to get errors instead.
func (f *Faults) compile(w *World, seed int64, s *Spec) {
	if f.IsZero() {
		return
	}
	pops := make(map[string]bool, len(s.Populations))
	for i := range s.Populations {
		pops[s.Populations[i].Name] = true
	}
	if err := f.validate(pops); err != nil {
		panic(err)
	}
	if f.Seed != 0 {
		w.Net.SetFaultSeed(seed + f.Seed)
	}
	if !f.Impairment.IsZero() {
		w.Net.ImpairAll(f.Impairment)
	}
	for _, l := range f.Links {
		for _, name := range w.Pops[l.Pop] {
			w.Net.ImpairNode(name, l.Impairment)
		}
	}
	for _, c := range f.Churn {
		w.Churns = append(w.Churns, w.Net.StartChurn(c.ChurnSchedule, w.Pops[c.Pop]...))
	}
	// Schedule partitions in chronological order: same-instant events fire
	// in scheduling order, so a window healing exactly when the next one
	// starts (validation allows touching windows) must enqueue its heal
	// before the successor's apply regardless of declaration order.
	partitions := make([]PartitionFault, len(f.Partitions))
	copy(partitions, f.Partitions)
	sort.Slice(partitions, func(i, j int) bool { return partitions[i].At < partitions[j].At })
	for _, p := range partitions {
		p := p
		w.Sim.Schedule(p.At, func() { w.applyPartition(p) })
		w.Sim.Schedule(p.Heal, func() { w.Net.ClearPartitions() })
	}
	for _, e := range f.Events {
		e := e
		w.Sim.Schedule(e.At, func() { w.Net.ImpairAll(e.Impairment) })
	}
	if f.BeaconMissEvict > 0 {
		for _, b := range w.Beacons {
			b.MissEvict = f.BeaconMissEvict
		}
	}
}

// applyPartition snapshots group membership for one partition event, in
// node creation order.
func (w *World) applyPartition(p PartitionFault) {
	for _, name := range w.Net.Nodes() {
		if w.Net.Node(name).Pos().X < p.SplitX {
			w.Net.SetPartitionGroup(name, 1)
		} else {
			w.Net.SetPartitionGroup(name, 2)
		}
	}
}

// --- measurement ---

// Reliability reports delivery health under the adversity layer: the
// world-wide delivery ratio, loss and fault-drop counts, ack/retry totals
// and churn repair times. The rows render "0"/"-" in fault-free worlds, so
// the probe can sit in any table shape.
type Reliability struct{}

// Collect implements Probe.
func (Reliability) Collect(w *World, t *metrics.Table) {
	u := w.Net.TotalUsage()
	if u.MsgsSent > 0 {
		t.AddRow("delivery ratio %", fmt.Sprintf("%.1f", 100*float64(u.MsgsRecv)/float64(u.MsgsSent)))
	} else {
		t.AddRow("delivery ratio %", "-")
	}
	fs := w.Net.FaultStats()
	t.AddRow("messages lost / fault drops", fmt.Sprintf("%d / %d", u.MsgsLost, fs.Drops))
	var retries, gaveUp int64
	for _, r := range w.Reliables {
		st := r.Stats()
		retries += st.Retries
		gaveUp += st.GaveUp
	}
	t.AddRow("retries / gave up", fmt.Sprintf("%d / %d", retries, gaveUp))
	var churn netsim.ChurnStats
	for _, c := range w.Churns {
		churn.Crashes += c.Stats.Crashes
		churn.Rejoins += c.Stats.Rejoins
		churn.Downtime += c.Stats.Downtime
	}
	t.AddRow("churn crashes / rejoins", fmt.Sprintf("%d / %d", churn.Crashes, churn.Rejoins))
	if churn.Rejoins > 0 {
		mttr := churn.Downtime / time.Duration(churn.Rejoins)
		t.AddRow("mean time-to-repair s", fmt.Sprintf("%.1f", mttr.Seconds()))
	} else {
		t.AddRow("mean time-to-repair s", "-")
	}
}
