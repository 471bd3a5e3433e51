package sim

import (
	"fmt"
	"time"

	"logmob/internal/app"
	"logmob/internal/discovery"
	"logmob/internal/metrics"
	"logmob/internal/netsim"
	"logmob/internal/scenario"
	"logmob/internal/transport"
	"logmob/internal/update"
)

// A3 ablates the self-update subsystem's advertisement cadence: faster
// beacons propagate a new component version sooner but burn more airtime on
// every node, update or no update. The experiment publishes an upgrade at a
// known instant and measures time-to-update across a fleet of devices
// against total beacon traffic, per beacon interval.
func A3() Experiment {
	return Experiment{
		ID:    "A3",
		Title: "Ablation: self-update advertisement cadence",
		Motivation: `"use COD techniques to dynamically update itself" — how ` +
			`aggressively should updates be advertised?`,
		Run: runA3,
	}
}

const (
	a3Devices  = 6
	a3CheckSec = 10
)

func runA3(seed int64) *Result {
	res := &Result{ID: "A3", Title: "Self-update cadence ablation"}
	table := metrics.NewTable(fmt.Sprintf(
		"Table A3: %d devices, update published at t=30s, updater checks every %ds",
		a3Devices, a3CheckSec),
		"beacon interval s", "mean update s", "max update s", "beacon B total")
	chart := metrics.NewChart("Figure A3: time-to-update vs beacon interval", "interval s", "seconds")

	for _, interval := range []time.Duration{2 * time.Second, 5 * time.Second, 10 * time.Second, 20 * time.Second} {
		mean, worst, beaconBytes := runA3Config(seed, interval)
		table.AddRow(int(interval.Seconds()),
			fmt.Sprintf("%.1f", mean), fmt.Sprintf("%.1f", worst), beaconBytes)
		chart.Add("mean", interval.Seconds(), mean)
		chart.Add("max", interval.Seconds(), worst)
	}
	res.Tables = append(res.Tables, table)
	res.Charts = append(res.Charts, chart)
	res.Notes = append(res.Notes,
		"expected shape: time-to-update grows with the beacon interval (bounded below by the updater's own check cadence); beacon traffic shrinks roughly inversely")
	return res
}

func runA3Config(seed int64, interval time.Duration) (meanS, maxS float64, beaconBytes int64) {
	w := scenario.NewWorld(seed)
	class := netsim.WLAN
	class.Range = 1000 // one shared cell

	repo := w.AddHost("repo", netsim.Position{}, class, nil)
	repoBeacon := discovery.NewBeacon(repo.Mux().Channel(transport.ChanBeacon), w.Sim, interval)
	repoBeacon.Start()

	old := app.BuildCodec(w.ID, "ogg", "1.0", 2048)
	updated := make([]time.Duration, 0, a3Devices)
	publishAt := 30 * time.Second

	for i := 0; i < a3Devices; i++ {
		name := fmt.Sprintf("dev%d", i)
		dev := w.AddHost(name, netsim.Position{X: float64(10 + i)}, class, nil)
		if err := dev.Registry().Put(old); err != nil {
			panic(err)
		}
		b := discovery.NewBeacon(dev.Mux().Channel(transport.ChanBeacon), w.Sim, interval)
		b.Start()
		up := update.New(dev, b, w.Sim, a3CheckSec*time.Second)
		up.OnUpdate = func(name, provider, oldV, newV string) {
			updated = append(updated, w.Sim.Now()-publishAt)
		}
		up.Start()
	}

	// The upgrade appears at t=30s.
	w.Sim.Schedule(publishAt, func() {
		v11 := app.BuildCodec(w.ID, "ogg", "1.1", 2048)
		if err := repo.Publish(v11); err != nil {
			panic(err)
		}
		update.AdvertiseComponents(repo, repoBeacon, 3*interval)
	})
	w.Sim.RunFor(10 * time.Minute)

	var lat metrics.Series
	for _, d := range updated {
		lat.Observe(d.Seconds())
	}
	// Beacon traffic: everything the repo sent (its beacons dominate; device
	// beacons are empty and not transmitted).
	u := w.Net.UsageOf("repo")
	return lat.Mean(), lat.Max(), u.BytesSent
}
