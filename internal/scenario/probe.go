package scenario

import (
	"fmt"

	"logmob/internal/discovery"
	"logmob/internal/metrics"
)

// MeanNeighbors reports the mean radio-neighbor count over a population.
type MeanNeighbors struct {
	Pop   string
	Label string // row label; default "mean radio neighbors"
}

// Collect implements Probe.
func (p MeanNeighbors) Collect(w *World, t *metrics.Table) {
	names := w.Pops[p.Pop]
	total := 0
	for _, name := range names {
		total += len(w.Net.Neighbors(name))
	}
	label := p.Label
	if label == "" {
		label = "mean radio neighbors"
	}
	t.AddRow(label, fmt.Sprintf("%.2f", float64(total)/float64(len(names))))
}

// TopologyEpochs reports how many times the radio topology changed.
type TopologyEpochs struct{}

// Collect implements Probe.
func (TopologyEpochs) Collect(w *World, t *metrics.Table) {
	t.AddRow("topology epochs", w.Net.TopologyEpoch())
}

// BeaconTraffic reports beacon broadcast and reception totals over every
// beacon in the world.
type BeaconTraffic struct{}

// Collect implements Probe.
func (BeaconTraffic) Collect(w *World, t *metrics.Table) {
	var sent, heard int64
	for _, b := range w.Beacons {
		sent += b.Sent
		heard += b.Heard
	}
	t.AddRow("beacon broadcasts", sent)
	t.AddRow("beacon messages heard", heard)
}

// BeaconCache reports the mean cached-advertisement count over a population.
type BeaconCache struct {
	Pop   string
	Label string // row label; default "mean cached ads"
}

// Collect implements Probe.
func (p BeaconCache) Collect(w *World, t *metrics.Table) {
	names := w.Pops[p.Pop]
	total := 0
	for _, name := range names {
		total += w.Beacons[name].CacheSize()
	}
	label := p.Label
	if label == "" {
		label = "mean cached ads"
	}
	t.AddRow(label, fmt.Sprintf("%.1f", float64(total)/float64(len(names))))
}

// Coverage reports the percentage of a population whose beacon cache can
// answer a query for Service.
type Coverage struct {
	Pop     string
	Service string
}

// Collect implements Probe.
func (p Coverage) Collect(w *World, t *metrics.Table) {
	names := w.Pops[p.Pop]
	covered := 0
	for _, name := range names {
		w.Beacons[name].Find(discovery.Query{Service: p.Service}, func(ads []discovery.Ad) {
			if len(ads) > 0 {
				covered++
			}
		})
	}
	t.AddRow(p.Service+" coverage %",
		fmt.Sprintf("%.1f", 100*float64(covered)/float64(len(names))))
}

// AgentHops reports total agent migrations and migration failures over every
// platform in the world.
type AgentHops struct {
	Label string // row label; default "agent hops / failed"
}

// Collect implements Probe.
func (p AgentHops) Collect(w *World, t *metrics.Table) {
	var hops, fails int64
	for _, plat := range w.Platforms {
		hops += plat.Stats().Migrations
		fails += plat.Stats().MigrationFailures
	}
	label := p.Label
	if label == "" {
		label = "agent hops / failed"
	}
	t.AddRow(label, fmt.Sprintf("%d / %d", hops, fails))
}

// Deliveries reports courier delivery counts and the median first-delivery
// time for a Couriers workload.
type Deliveries struct {
	Of *Couriers
	// Prefix labels the rows; default "courier".
	Prefix string
}

// Collect implements Probe.
func (p Deliveries) Collect(_ *World, t *metrics.Table) {
	prefix := p.Prefix
	if prefix == "" {
		prefix = "courier"
	}
	s := &p.Of.Stats
	// Denominator is the couriers actually spawned: a target can lack an
	// unused source in the band on some seeds, and a spawn gap must not
	// read as a delivery failure.
	t.AddRow(prefix+"s delivered", fmt.Sprintf("%d/%d", len(s.DeliveredBy), s.Spawned))
	if s.Delivered.N() > 0 {
		t.AddRow(prefix+" median delivery s",
			fmt.Sprintf("%.1f", s.Delivered.Median()-s.SpawnStart))
	} else {
		t.AddRow(prefix+" median delivery s", "-")
	}
}

// Fetches reports code-on-demand rollout progress for a FetchWave: how much
// of the population has the unit, and the median time to get it.
type Fetches struct {
	Of *FetchWave
	// Prefix labels the rows; default "update".
	Prefix string
}

// Collect implements Probe.
func (p Fetches) Collect(_ *World, t *metrics.Table) {
	prefix := p.Prefix
	if prefix == "" {
		prefix = "update"
	}
	s := &p.Of.Stats
	t.AddRow(prefix+"s fetched", fmt.Sprintf("%d/%d", s.Fetched, s.Clients))
	if s.Done.N() > 0 {
		t.AddRow(prefix+" median fetch s",
			fmt.Sprintf("%.1f", s.Done.Median()-s.Start))
	} else {
		t.AddRow(prefix+" median fetch s", "-")
	}
}

// NetTraffic reports whole-network message and byte totals.
type NetTraffic struct{}

// Collect implements Probe.
func (NetTraffic) Collect(w *World, t *metrics.Table) {
	usage := w.Net.TotalUsage()
	t.AddRow("messages sent", usage.MsgsSent)
	t.AddRow("MB sent", fmt.Sprintf("%.2f", float64(usage.BytesSent)/1e6))
}

// ProbeFunc adapts a function to a Probe.
type ProbeFunc func(w *World, t *metrics.Table)

// Collect implements Probe.
func (f ProbeFunc) Collect(w *World, t *metrics.Table) { f(w, t) }
