package scenario

import (
	"math"
	"strings"
	"testing"
	"time"

	"logmob/internal/metrics"
	"logmob/internal/netsim"
)

// faultySpec is a small mobile crowd with every fault mechanism switched
// on, used by the determinism and probe tests.
func faultySpec(f Faults) *Spec {
	return &Spec{
		Name:  "faulty crowd",
		Field: Field{Width: 300, Height: 300},
		Populations: []Population{
			{
				Name: "hub", Count: 2,
				Place: PlacePoints{{X: 75, Y: 150}, {X: 225, Y: 150}},
				Link:  netsim.AdHoc, Range: 60,
				Beacon: 10 * time.Second, AdSelf: "hub/",
			},
			{
				Name: "m", Count: 30, Place: PlaceUniform{},
				Link: netsim.AdHoc, Range: 60,
				Beacon: 10 * time.Second,
				Mobility: &netsim.RandomWaypoint{
					FieldW: 300, FieldH: 300, SpeedMin: 1, SpeedMax: 4, Pause: 2 * time.Second,
				},
			},
		},
		Warmup:   20 * time.Second,
		Duration: 2 * time.Minute,
		Workloads: []Workload{Func(func(w *World) {
			// A steady unicast stream across the field so loss, retries and
			// partitions have traffic to act on.
			var tick func(i int)
			tick = func(i int) {
				if i >= 90 {
					return
				}
				from := w.Pops["m"][i%30]
				w.Hosts[from].Call("hub0", "ping", nil, func([][]byte, error) {})
				w.Sim.Schedule(time.Second, func() { tick(i + 1) })
			}
			w.Hosts["hub0"].RegisterService("ping", func(string, [][]byte) ([][]byte, error) {
				return nil, nil
			})
			tick(0)
		})},
		Probes: []Probe{Reliability{}, NetTraffic{}},
		Faults: f,
	}
}

func allFaults() Faults {
	return Faults{
		Impairment: netsim.Impairment{Drop: 0.2, JitterTicks: 3},
		Links:      []LinkFault{{Pop: "m", Impairment: netsim.Impairment{Drop: 0.05}}},
		Churn: []ChurnFault{{Pop: "m", ChurnSchedule: netsim.ChurnSchedule{
			Tick: 10 * time.Second, CrashProb: 0.05, Downtime: 15 * time.Second,
		}}},
		Partitions: []PartitionFault{{At: 50 * time.Second, Heal: 90 * time.Second, SplitX: 150}},
		Events:     []FaultEvent{{At: 70 * time.Second, Impairment: netsim.Impairment{Drop: 0.4}}},
		Retry:      RetryFault{Budget: 3, Timeout: 2 * time.Second},

		BeaconMissEvict: 3,
	}
}

func renderTable(t *metrics.Table) string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// TestFaultsDeterministic checks the contract named in the issue: the same
// spec+seed runs twice to identical tables, and a different fault seed —
// same world seed — yields a different table.
func TestFaultsDeterministic(t *testing.T) {
	run := func(faultSeed int64) string {
		f := allFaults()
		f.Seed = faultSeed
		_, table := faultySpec(f).Run(1)
		return renderTable(table)
	}
	a, b := run(0), run(0)
	if a != b {
		t.Fatalf("same spec+seed diverged:\n%s\n%s", a, b)
	}
	if c := run(7); c == a {
		t.Fatalf("different fault seed produced an identical table:\n%s", c)
	}
}

// TestFaultsWorkersDifferential runs the all-faults spec at workers=1 and
// workers=4 and requires byte-identical tables — the scenario-level chaos
// differential.
func TestFaultsWorkersDifferential(t *testing.T) {
	run := func(workers int) string {
		sp := faultySpec(allFaults())
		sp.Workers = workers
		_, table := sp.Run(3)
		return renderTable(table)
	}
	if serial, parallel := run(1), run(4); serial != parallel {
		t.Fatalf("faulty run differs across worker counts:\n--- w=1 ---\n%s--- w=4 ---\n%s", serial, parallel)
	}
}

// TestFaultsCompileWiring checks each declarative knob lands on the world:
// impairments drop traffic, churn crashes members, the partition splits and
// heals on schedule, retry wraps every host, beacons evict. The embedded
// netsim values arrive unconverted: every field of the global, the per-Links
// and the per-Event Impairment shows in the link state the network reports.
func TestFaultsCompileWiring(t *testing.T) {
	f := allFaults()
	link := netsim.Impairment{Drop: 0.05, JitterTicks: 5, JitterTick: 80 * time.Millisecond, BandwidthFactor: 0.5}
	event := netsim.Impairment{Drop: 0.4, JitterTicks: 2, JitterTick: 50 * time.Millisecond, BandwidthFactor: 0.25}
	f.Links[0].Impairment, f.Events[0].Impairment = link, event
	sp := faultySpec(f)
	w := sp.Compile(1)
	// wantLink asserts the link state of node id: its class degraded by the
	// given bandwidth factor, expected jitter and drop probability. The drop
	// composes with the class's own loss as LinkState composes it (World.AddHost
	// zeroes that loss today; the expectation does not lean on it).
	wantLink := func(when, id string, factor float64, jitter time.Duration, drop float64) {
		t.Helper()
		class := w.Net.Node(id).Class
		want := 1 - (1-class.Loss)*(1-drop)
		bw, lat, loss := w.Net.LinkState(id)
		if bw != class.BandwidthBps*factor || lat != class.Latency+jitter || math.Abs(loss-want) > 1e-12 {
			t.Fatalf("%s: %s link state = (%v B/s, %v, loss %v), want (%v, %v, %v)",
				when, id, bw, lat, loss, class.BandwidthBps*factor, class.Latency+jitter, want)
		}
	}
	// A hub sees the global rule alone (3 ticks of the default 100ms: 150ms
	// expected); a member of "m" composes it with the Links rule, whose
	// 5x80ms jitter bound is the worse one.
	wantLink("compiled", "hub0", 1, 150*time.Millisecond, f.Drop)
	for _, id := range w.Pops["m"] {
		wantLink("compiled", id, link.BandwidthFactor, 200*time.Millisecond, 1-(1-f.Drop)*(1-link.Drop))
	}
	if len(w.Reliables) != 32 {
		t.Fatalf("%d reliable endpoints, want every host (32)", len(w.Reliables))
	}
	if len(w.Churns) != 1 {
		t.Fatalf("%d churn schedules, want 1", len(w.Churns))
	}
	for name, b := range w.Beacons {
		if b.MissEvict != 3 {
			t.Fatalf("beacon %s MissEvict = %d, want 3", name, b.MissEvict)
		}
	}
	// Mid-partition the two hubs sit on opposite sides of x=150.
	w.Sim.Run(60 * time.Second)
	if w.Net.Connected("hub0", "hub1") || w.Net.PartitionGroup("hub0") == w.Net.PartitionGroup("hub1") {
		t.Fatal("partition event did not split the hubs at t=60s")
	}
	w.Sim.Run(95 * time.Second)
	wantLink("after the t=70s event", "hub1", event.BandwidthFactor, 50*time.Millisecond, event.Drop)
	if w.Net.PartitionGroup("hub0") != 0 || w.Net.PartitionGroup("hub1") != 0 {
		t.Fatal("partition did not heal at t=95s")
	}
	w.Sim.Run(sp.Warmup + sp.Duration)
	if w.Net.FaultStats().Drops == 0 {
		t.Fatal("no impairment drops over a 2-minute lossy run")
	}
	var crashes int64
	for _, c := range w.Churns {
		crashes += c.Stats.Crashes
	}
	if crashes == 0 {
		t.Fatal("churn never crashed a member")
	}
}

// TestFaultsInertByDefault checks an inert Faults block compiles to
// nothing and changes nothing: BandwidthFactor=1 (explicitly "unchanged")
// renders the same tables as the zero block, and neither builds fault
// machinery. The end-to-end inertness proof is the goldens staying
// byte-identical (TestPortedExperimentGoldens).
func TestFaultsInertByDefault(t *testing.T) {
	base := func(f Faults) *Spec {
		sp := faultySpec(f)
		sp.Probes = []Probe{NetTraffic{}} // drop Reliability: it reports the fault layer
		return sp
	}
	_, zero := base(Faults{}).Run(5)
	_, unity := base(Faults{Impairment: netsim.Impairment{BandwidthFactor: 1}}).Run(5)
	if renderTable(zero) != renderTable(unity) {
		t.Fatal("BandwidthFactor=1 is documented as unchanged but perturbed the run")
	}
	if !(&Faults{Impairment: netsim.Impairment{BandwidthFactor: 1}}).IsZero() {
		t.Fatal("BandwidthFactor=1 must count as inert")
	}
	if w := base(Faults{}).Compile(5); w.Reliables != nil || w.Churns != nil {
		t.Fatal("zero Faults block compiled fault machinery")
	}
}

// TestPartitionWindowsOutOfOrder checks that touching windows declared out
// of chronological order still both take effect: the earlier window's heal
// must fire before the later window's apply at the shared instant.
func TestPartitionWindowsOutOfOrder(t *testing.T) {
	sp := faultySpec(Faults{
		Partitions: []PartitionFault{
			{At: 60 * time.Second, Heal: 90 * time.Second, SplitX: 150}, // declared first, starts second
			{At: 30 * time.Second, Heal: 60 * time.Second, SplitX: 150},
		},
	})
	w := sp.Compile(1)
	split := func() bool {
		return w.Net.PartitionGroup("hub0") != 0 &&
			w.Net.PartitionGroup("hub0") != w.Net.PartitionGroup("hub1")
	}
	w.Sim.Run(45 * time.Second)
	if !split() {
		t.Fatal("first window (30s-60s) not in effect at t=45s")
	}
	w.Sim.Run(75 * time.Second)
	if !split() {
		t.Fatal("second window (60s-90s) was wiped by the first window's heal at t=60s")
	}
	w.Sim.Run(95 * time.Second)
	if split() || w.Net.PartitionGroup("hub0") != 0 {
		t.Fatal("partitions did not heal after the last window")
	}
}

// TestSpecValidate enumerates hostile specs that must error (not panic).
func TestSpecValidate(t *testing.T) {
	valid := func() *Spec { return faultySpec(allFaults()) }
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"negative population", func(s *Spec) { s.Populations[1].Count = -4 }},
		{"oversized population", func(s *Spec) { s.Populations[1].Count = maxPopulation + 1 }},
		{"duplicate population", func(s *Spec) { s.Populations[1].Name = "hub" }},
		{"colliding node names", func(s *Spec) {
			s.Populations = append(s.Populations, Population{Name: "m3"}) // collides with m3 of pop m
		}},
		{"unnamed population", func(s *Spec) { s.Populations[0].Name = "" }},
		{"NaN field", func(s *Spec) { s.Field.Width = math.NaN() }},
		{"NaN loss", func(s *Spec) { s.Faults.Drop = math.NaN() }},
		{"loss of 1", func(s *Spec) { s.Faults.Drop = 1 }},
		{"negative loss", func(s *Spec) { s.Faults.Drop = -0.1 }},
		{"bandwidth factor > 1", func(s *Spec) { s.Faults.BandwidthFactor = 1.5 }},
		{"negative jitter", func(s *Spec) { s.Faults.JitterTicks = -1 }},
		{"unknown link pop", func(s *Spec) { s.Faults.Links[0].Pop = "ghost" }},
		{"unknown churn pop", func(s *Spec) { s.Faults.Churn[0].Pop = "ghost" }},
		{"churn prob of 1", func(s *Spec) { s.Faults.Churn[0].CrashProb = 1 }},
		{"duty on > period", func(s *Spec) {
			s.Faults.Churn[0].DutyPeriod = time.Second
			s.Faults.Churn[0].DutyOn = 2 * time.Second
		}},
		{"duty period within one churn tick", func(s *Spec) {
			s.Faults.Churn[0].DutyPeriod = s.Faults.Churn[0].Tick
			s.Faults.Churn[0].DutyOn = s.Faults.Churn[0].Tick / 2
		}},
		{"duty period within the default churn tick", func(s *Spec) {
			s.Faults.Churn[0].Tick = 0
			s.Faults.Churn[0].DutyPeriod = 10 * time.Second
			s.Faults.Churn[0].DutyOn = 5 * time.Second
		}},
		{"duplicate link fault pop", func(s *Spec) {
			s.Faults.Links = append(s.Faults.Links, LinkFault{Pop: s.Faults.Links[0].Pop, Impairment: netsim.Impairment{JitterTicks: 3}})
		}},
		{"partition heals before start", func(s *Spec) { s.Faults.Partitions[0].Heal = time.Second }},
		{"partition without split", func(s *Spec) { s.Faults.Partitions[0].SplitX = 0 }},
		{"NaN split", func(s *Spec) { s.Faults.Partitions[0].SplitX = math.NaN() }},
		{"overlapping partitions", func(s *Spec) {
			s.Faults.Partitions = append(s.Faults.Partitions,
				PartitionFault{At: 60 * time.Second, Heal: 80 * time.Second, SplitX: 100})
		}},
		{"negative event time", func(s *Spec) {
			s.Faults.Events = append(s.Faults.Events, FaultEvent{At: -time.Second})
		}},
		{"negative retry budget", func(s *Spec) { s.Faults.Retry.Budget = -1 }},
		{"negative warmup", func(s *Spec) { s.Warmup = -time.Second }},
	}
	for _, c := range cases {
		s := valid()
		c.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a hostile spec", c.name)
		} else if _, cerr := s.CompileChecked(1); cerr == nil {
			t.Errorf("%s: CompileChecked accepted a hostile spec", c.name)
		}
	}
}

// FuzzSpecCompile feeds hostile numeric fault blocks through CompileChecked
// and a short run: it must return errors on bad input and never panic.
func FuzzSpecCompile(f *testing.F) {
	f.Add(10, 0.2, 3, int64(50), int64(90), 150.0, 3, 0.05, int64(10), 1.0)
	f.Add(-1, math.NaN(), -5, int64(-3), int64(2), math.Inf(1), -2, 1.5, int64(0), 0.0)
	f.Add(2, 0.999, 1<<30, int64(90), int64(50), 0.0, 1001, -0.5, int64(-7), math.NaN())
	f.Fuzz(func(t *testing.T, count int, loss float64, jitterTicks int,
		pAt, pHeal int64, splitX float64, budget int, crash float64, churnTick int64, bw float64) {
		spec := &Spec{
			Name:  "fuzz",
			Field: Field{Width: 200, Height: 200},
			Populations: []Population{{
				Name: "n", Count: count, Place: PlaceUniform{},
				Link: netsim.AdHoc, Range: 50, Beacon: 5 * time.Second,
			}},
			Duration: time.Second,
			Faults: Faults{
				Impairment: netsim.Impairment{Drop: loss, JitterTicks: jitterTicks, BandwidthFactor: bw},
				Churn: []ChurnFault{{Pop: "n", ChurnSchedule: netsim.ChurnSchedule{
					Tick: time.Duration(churnTick) * time.Second, CrashProb: crash,
				}}},
				Partitions: []PartitionFault{{
					At:     time.Duration(pAt) * time.Second,
					Heal:   time.Duration(pHeal) * time.Second,
					SplitX: splitX,
				}},
				Retry: RetryFault{Budget: budget},
			},
		}
		// Hostile counts must be rejected, not allocated: cap what we are
		// willing to actually compile, but validate the raw value.
		if count > 64 {
			if err := spec.Validate(); err == nil && count > maxPopulation {
				t.Fatalf("Validate accepted population count %d", count)
			}
			spec.Populations[0].Count = count % 64
		}
		w, err := spec.CompileChecked(1)
		if err != nil {
			return // rejected: exactly what hostile input should get
		}
		w.Sim.RunFor(spec.Duration + 30*time.Second)
	})
}
