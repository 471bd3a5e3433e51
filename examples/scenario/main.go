// Scenario: a declarative festival deployment through the public logmob
// facade — no internal packages. A crowd of short-range devices roams a
// field with a few fixed stages; store-carry-forward couriers cross the
// partitioned crowd; the whole thing replicates over several seeds in
// parallel and reports a mean±stddev table.
//
//	go run ./examples/scenario
//	go run ./examples/scenario -attendees 800 -seeds 5 -parallel 5
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"logmob"
)

func main() {
	attendees := flag.Int("attendees", 400, "crowd size")
	seeds := flag.Int("seeds", 3, "replicate seeds")
	parallel := flag.Int("parallel", 3, "replicates run concurrently")
	flag.Parse()

	multi := logmob.RunSeeds(1, *seeds, *parallel, func(seed int64) *logmob.ScenarioResult {
		spec := festival(*attendees)
		_, table := logmob.RunSpec(spec, seed)
		return &logmob.ScenarioResult{
			ID: "festival", Title: spec.Name, Tables: []*logmob.Table{table},
		}
	})

	for _, rep := range multi.Replicates {
		fmt.Printf("--- seed %d ---\n", rep.Seed)
		rep.Result.Render(os.Stdout)
	}
	if multi.Aggregate != nil {
		fmt.Printf("--- aggregate over %d seeds ---\n", len(multi.Replicates))
		multi.Aggregate.Render(os.Stdout)
	}
}

// festival declares the world: two stages at fixed points, a roaming crowd,
// beacon discovery everywhere, and a courier fleet as the workload.
func festival(attendees int) *logmob.Scenario {
	const (
		field = 700.0 // metres square
		radio = 40.0  // per-device radio range: a partitioned crowd
	)

	fleet := &logmob.CourierWorkload{
		Count:     4,
		TargetPop: "stage", SourcePop: "crowd",
		SrcMin: 150, SrcMax: 350,
		PayloadBytes: 200,
		TopicPrefix:  "festival/courier",
	}

	return &logmob.Scenario{
		Name:  "Festival (public API)",
		Field: logmob.ScenarioField{Width: field, Height: field},
		Populations: []logmob.Population{
			{
				Name: "stage", Count: 2,
				Place:         logmob.PlacePoints{{X: field / 4, Y: field / 2}, {X: 3 * field / 4, Y: field / 2}},
				Link:          logmob.AdHoc,
				Range:         radio,
				AllowUnsigned: true,
				Agents:        true, MaxHops: 4096, ExtraCaps: logmob.GreedyGeoCaps,
				Beacon: 20 * time.Second,
				Ads:    []logmob.ServiceAd{{Service: "festival/info"}},
				AdSelf: "festival/",
			},
			{
				Name: "crowd", Count: attendees,
				Place:         logmob.PlaceUniform{},
				Link:          logmob.AdHoc,
				Range:         radio,
				AllowUnsigned: true,
				Agents:        true, AgentSeedOffset: 2, MaxHops: 4096, ExtraCaps: logmob.GreedyGeoCaps,
				Beacon: 20 * time.Second,
				Ads:    []logmob.ServiceAd{{Service: "presence"}},
				Mobility: &logmob.RandomWaypoint{
					FieldW: field, FieldH: field,
					SpeedMin: 1, SpeedMax: 5, Pause: 5 * time.Second,
				},
				MobilityTick: time.Second,
			},
		},
		Warmup:    time.Minute,
		Duration:  6 * time.Minute,
		Workloads: []logmob.ScenarioWorkload{fleet},
		Probes: []logmob.ScenarioProbe{
			logmob.MeanNeighborsProbe{Pop: "crowd"},
			logmob.BeaconTrafficProbe{},
			logmob.CoverageProbe{Pop: "crowd", Service: "festival/info"},
			logmob.AgentHopsProbe{},
			fleet,
			logmob.NetTrafficProbe{},
		},
		TableTitle: fmt.Sprintf("Festival: %d attendees, %gx%gm field, range %gm",
			attendees, field, field, radio),
	}
}
