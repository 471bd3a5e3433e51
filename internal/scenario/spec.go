package scenario

import (
	"time"

	"logmob/internal/agent"
	"logmob/internal/core"
	"logmob/internal/discovery"
	"logmob/internal/metrics"
	"logmob/internal/netsim"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

// Field is the world's rectangular field, in metres. The zero Field is a
// point world (every node at the origin, as wired-network experiments use).
type Field struct {
	Width, Height float64
}

// Placement decides where the i-th member of a population stands.
type Placement interface {
	Place(w *World, i int) netsim.Position
}

// PlaceUniform scatters nodes uniformly over the world's field, drawing from
// the simulator's deterministic RNG.
type PlaceUniform struct{}

// Place implements Placement.
func (PlaceUniform) Place(w *World, _ int) netsim.Position {
	return netsim.Position{
		X: w.Sim.Rand().Float64() * w.Field.Width,
		Y: w.Sim.Rand().Float64() * w.Field.Height,
	}
}

// PlacePoints places nodes at fixed positions, indexed by population member.
type PlacePoints []netsim.Position

// Place implements Placement.
func (p PlacePoints) Place(_ *World, i int) netsim.Position {
	if i < len(p) {
		return p[i]
	}
	return netsim.Position{}
}

// CapsFactory lists the extra agent capabilities a population's platforms
// contribute; it receives the compiled world so capabilities can consult the
// network (e.g. geographic routing). It runs once per population: the result
// joins the standard set in one table every member shares.
type CapsFactory func(w *World) []vm.HostFunc

// Population declares one group of like-configured nodes.
type Population struct {
	// Name is the population name; members are named Name0..NameN-1
	// (or just Name when Count <= 1), unless NameOf overrides it.
	Name string
	// Count is the number of nodes (default 1).
	Count int
	// NameOf, if set, names the i-th member (e.g. custom zero-padding).
	NameOf func(i int) string
	// Place positions members; nil places everyone at the origin.
	Place Placement
	// Link is the physical layer (loss is disabled; experiments about loss
	// re-enable it via ConfigHost on the network node).
	Link netsim.LinkClass
	// Range, if positive, overrides Link.Range (metres).
	Range float64
	// AllowUnsigned relaxes the host's security policy to accept unsigned
	// units — ad-hoc crowds without a shared publisher need it.
	AllowUnsigned bool
	// EnergyBudget, when positive, gives every member a battery: once the
	// member's cumulative traffic energy reaches it, its radio is dead
	// (netsim.Node.EnergyBudget). 0 means unlimited power.
	EnergyBudget float64
	// ConfigHost mutates the kernel config before the host is built.
	ConfigHost func(*core.Config)
	// Setup runs after the i-th member's host (and platform/beacon, if any)
	// exists — application-level provisioning such as vendor catalogues.
	Setup func(w *World, i int, h *core.Host)

	// Agents attaches an agent platform to every member. The platform seed
	// is world seed + AgentSeedOffset + member index.
	Agents          bool
	AgentSeedOffset int64
	// MaxHops bounds agent hop counts on this population's platforms
	// (0 = platform default).
	MaxHops int64
	// ExtraCaps contributes application capabilities to agent activations.
	ExtraCaps CapsFactory

	// Beacon, if positive, starts a discovery beacon on every member with
	// this interval.
	Beacon time.Duration
	// Ads are advertised on each member's beacon, in order.
	Ads []discovery.Ad
	// AdSelf, if non-empty, additionally advertises AdSelf + member name
	// (e.g. "festival/" -> "festival/stage0").
	AdSelf string

	// Mobility, if non-nil, moves the whole population under this model,
	// stepped every MobilityTick (default 1s).
	Mobility     netsim.MobilityModel
	MobilityTick time.Duration
}

// Workload is one unit of activity started after the warmup phase.
type Workload interface {
	Start(w *World)
}

// Probe contributes rows to the scenario's summary table after the run.
type Probe interface {
	Collect(w *World, t *metrics.Table)
}

// Spec is a declarative scenario: the world to build and the activity to run
// on it. Specs are plain data plus small hooks; build one per run when hooks
// capture state.
type Spec struct {
	// Name titles the scenario (and the Result built from it).
	Name string
	// Field is the world's field; zero means a point world.
	Field Field
	// Populations are compiled in order; within one population, members are
	// compiled in index order. Order is part of determinism.
	Populations []Population
	// Warmup runs the world before any workload starts (mixing mobility,
	// warming discovery caches).
	Warmup time.Duration
	// Duration runs the world after workloads start.
	Duration time.Duration
	// Workloads are started in order at the end of the warmup.
	Workloads []Workload
	// Probes fill the summary table in order after the run; a Spec with no
	// probes produces no summary table.
	Probes []Probe
	// TableTitle titles the probe summary table.
	TableTitle string
	// Workers sizes the simulator's two-phase tick worker pool: 0 inherits
	// the package default (SetDefaultWorkers), negative selects GOMAXPROCS,
	// and values >= 1 are explicit. Per-seed results are bit-identical at
	// any setting — workers only change wall-clock.
	Workers int
	// Faults is the adversity layer: link impairments, churn, timed
	// partitions, ack/retry transport and beacon-miss eviction. The zero
	// value is provably inert (fault-free runs are byte-identical with or
	// without it); see Faults.
	Faults Faults
	// Sense is the live context-sensing layer: sampled link state, retry
	// accounting, battery and neighborhood written into each host's
	// context service at a fixed tick. The zero value is provably inert;
	// see Sense.
	Sense Sense
}

// Compile builds the world a Spec describes for one seed: hosts, platforms,
// beacons and mobility, in declaration order, deterministically.
func (s *Spec) Compile(seed int64) *World {
	w := NewWorld(seed)
	w.Field = s.Field
	if s.Workers != 0 {
		w.Net.SetWorkers(s.Workers) // negative resolves to GOMAXPROCS
	}
	// The ack/retry layer wraps endpoints as hosts are created, so it must
	// be primed before the first population compiles.
	w.retry = s.Faults.Retry
	// One shared beacon cadence per distinct interval: every member's beacon
	// joins its interval's batch in creation order, so a whole interval
	// class costs one scheduler timer and broadcasts in canonical node order
	// (see discovery.BeaconBatch).
	batches := map[time.Duration]*discovery.BeaconBatch{}
	for pi := range s.Populations {
		p := &s.Populations[pi]
		count := p.Count
		if count <= 0 {
			count = 1
		}
		var caps *vm.HostTable // nil: the platform's standard set
		if p.ExtraCaps != nil {
			caps = agent.NewCaps(p.ExtraCaps(w)...)
		}
		for i := 0; i < count; i++ {
			name := p.nodeName(i)
			var pos netsim.Position
			if p.Place != nil {
				pos = p.Place.Place(w, i)
			}
			class := p.Link
			if p.Range > 0 {
				class.Range = p.Range
			}
			h := w.AddHost(name, pos, class, func(c *core.Config) {
				if p.AllowUnsigned {
					c.Policy.AllowUnsigned = true
				}
				if p.ConfigHost != nil {
					p.ConfigHost(c)
				}
			})
			if p.EnergyBudget > 0 {
				w.Net.SetEnergyBudget(name, p.EnergyBudget)
			}
			w.Pops[p.Name] = append(w.Pops[p.Name], name)
			if p.Agents {
				w.Platforms[name] = agent.NewPlatform(h, agent.Env{
					Seed:    seed + p.AgentSeedOffset + int64(i),
					MaxHops: p.MaxHops,
					Caps:    caps,
					OnDone:  w.keepRecord,
				})
			}
			if p.Beacon > 0 {
				b := discovery.NewBeacon(
					h.Mux().Channel(transport.ChanBeacon), w.Sim, p.Beacon)
				for _, ad := range p.Ads {
					b.Advertise(ad)
				}
				if p.AdSelf != "" {
					b.Advertise(discovery.Ad{Service: p.AdSelf + name})
				}
				// Add also sends the immediate first beacon, exactly as Start
				// would here.
				batch := batches[p.Beacon]
				if batch == nil {
					batch = discovery.NewBeaconBatch(w.Sim, p.Beacon)
					batches[p.Beacon] = batch
				}
				batch.Add(b)
				w.Beacons[name] = b
			}
			if p.Setup != nil {
				p.Setup(w, i, h)
			}
		}
	}
	// Mobility starts after every population exists, so placement RNG draws
	// are not interleaved with motion.
	for pi := range s.Populations {
		p := &s.Populations[pi]
		if p.Mobility == nil {
			continue
		}
		tick := p.MobilityTick
		if tick <= 0 {
			tick = time.Second
		}
		w.Net.StartMobility(p.Mobility, tick, w.Pops[p.Name]...)
	}
	// The adversity layer wires last, over the fully built world, then the
	// sensing layer taps the result. Zero-valued blocks compile to nothing.
	s.Faults.compile(w, seed, s)
	s.Sense.compile(w, s)
	return w
}

// Run compiles the spec, warms the world up, starts the workloads, runs the
// scenario and collects the probes. It returns the world (for ad-hoc
// measurement) and the probe summary table (nil without probes).
func (s *Spec) Run(seed int64) (*World, *metrics.Table) {
	w := s.Compile(seed)
	if s.Warmup > 0 {
		w.Sim.RunFor(s.Warmup)
	}
	for _, wl := range s.Workloads {
		wl.Start(w)
	}
	w.Sim.RunFor(s.Duration)
	var table *metrics.Table
	if len(s.Probes) > 0 {
		title := s.TableTitle
		if title == "" {
			title = s.Name
		}
		table = metrics.NewTable(title, "metric", "value")
		for _, p := range s.Probes {
			p.Collect(w, table)
		}
	}
	return w, table
}
