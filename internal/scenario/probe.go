package scenario

import (
	"fmt"

	"logmob/internal/discovery"
	"logmob/internal/metrics"
)

// MeanNeighbors reports the mean radio-neighbor count over a population.
type MeanNeighbors struct {
	Pop string
}

// Collect implements Probe.
func (p MeanNeighbors) Collect(w *World, t *metrics.Table) {
	names := w.Pops[p.Pop]
	total := 0
	for _, name := range names {
		total += len(w.Net.Neighbors(name))
	}
	t.AddRow("mean radio neighbors", fmt.Sprintf("%.2f", float64(total)/float64(len(names))))
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

// BeaconCache reports the mean cached-advertisement count over a population
// of roaming devices, whose caches hold mostly each other's presence ads.
type BeaconCache struct {
	Pop string
}

// Collect implements Probe.
func (p BeaconCache) Collect(w *World, t *metrics.Table) {
	names := w.Pops[p.Pop]
	total := 0
	for _, name := range names {
		total += w.Beacons[name].CacheSize()
	}
	t.AddRow("mean cached presence ads", fmt.Sprintf("%.1f", float64(total)/float64(len(names))))
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
// platform in the world; every platform in a crowd carries couriers.
type AgentHops struct{}

// Collect implements Probe.
func (AgentHops) Collect(w *World, t *metrics.Table) {
	var hops, fails int64
	for _, plat := range w.Platforms {
		hops += plat.Stats().Migrations
		fails += plat.Stats().MigrationFailures
	}
	t.AddRow("courier hops / failed", fmt.Sprintf("%d / %d", hops, fails))
}

// NetTraffic reports whole-network message and byte totals.
type NetTraffic struct{}

// Collect implements Probe.
func (NetTraffic) Collect(w *World, t *metrics.Table) {
	usage := w.Net.TotalUsage()
	t.AddRow("messages sent", usage.MsgsSent)
	t.AddRow("MB sent", fmt.Sprintf("%.2f", float64(usage.BytesSent)/1e6))
}
