package logmob_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"logmob"
)

// festivalSpec declares a T11-equivalent world — fixed stages, a roaming
// beaconing crowd, and a greedy-geographic courier fleet — using only the
// public facade. This is the acceptance check that a downstream user can
// stand up a simulated deployment without touching internal/.
func festivalSpec(attendees int) (*logmob.Scenario, *logmob.CourierWorkload) {
	const (
		field = 400.0
		radio = 40.0
	)
	fleet := &logmob.CourierWorkload{
		Count:     3,
		TargetPop: "stage", SourcePop: "crowd",
		SrcMin: 100, SrcMax: 300,
		PayloadBytes: 200,
		TopicPrefix:  "festival/courier",
	}
	spec := &logmob.Scenario{
		Name:  "festival via facade",
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
		Warmup:    30 * time.Second,
		Duration:  4 * time.Minute,
		Workloads: []logmob.ScenarioWorkload{fleet},
		Probes: []logmob.ScenarioProbe{
			logmob.MeanNeighborsProbe{Pop: "crowd"},
			logmob.BeaconTrafficProbe{},
			logmob.CoverageProbe{Pop: "crowd", Service: "festival/info"},
			logmob.AgentHopsProbe{},
			fleet,
			logmob.NetTrafficProbe{},
		},
		TableTitle: "festival via facade",
	}
	return spec, fleet
}

func TestScenarioThroughFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run in -short mode")
	}
	spec, fleet := festivalSpec(120)
	w, table := logmob.RunSpec(spec, 1)
	if table == nil || table.Rows() != 9 {
		t.Fatalf("summary table incomplete: %v", table)
	}
	if len(w.Pops["crowd"]) != 120 || len(w.Pops["stage"]) != 2 {
		t.Fatalf("populations not compiled: %v", len(w.Pops["crowd"]))
	}
	if fleet.Stats.Spawned == 0 {
		t.Error("no couriers spawned")
	}
	// The world is inspectable through the facade, too.
	if w.Net.TotalUsage().MsgsSent == 0 {
		t.Error("no traffic moved")
	}
}

func TestScenarioReplicationThroughFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run in -short mode")
	}
	run := func(parallel int) *logmob.MultiResult {
		return logmob.RunSeeds(1, 3, parallel, func(seed int64) *logmob.ScenarioResult {
			spec, _ := festivalSpec(100)
			_, table := logmob.RunSpec(spec, seed)
			return &logmob.ScenarioResult{
				ID: "fest", Title: spec.Name, Tables: []*logmob.Table{table},
			}
		})
	}
	serial, par := run(1), run(3)
	for i := range serial.Replicates {
		var a, b strings.Builder
		serial.Replicates[i].Result.Render(&a)
		par.Replicates[i].Result.Render(&b)
		if a.String() != b.String() {
			t.Errorf("seed %d diverged between serial and parallel runs",
				serial.Replicates[i].Seed)
		}
	}
	if par.Aggregate == nil {
		t.Fatal("no aggregate")
	}
	var sb strings.Builder
	par.Aggregate.Render(&sb)
	if !strings.Contains(sb.String(), "mean radio neighbors") {
		t.Errorf("aggregate table missing probe rows:\n%s", sb.String())
	}
}

// TestAggregateTablesFacade exercises the re-exported aggregation helper.
func TestAggregateTablesFacade(t *testing.T) {
	mk := func(v int) *logmob.Table {
		tab := logmob.NewResultTable("t", "metric", "value")
		tab.AddRow("x", fmt.Sprintf("%d", v))
		return tab
	}
	agg, err := logmob.AggregateTables([]*logmob.Table{mk(10), mk(20)})
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.Cell(0, 1); got != "15±5" {
		t.Errorf("aggregate cell = %q", got)
	}
}

// TestFaultsThroughFacade declares a degraded festival using only the
// public surface: the fault block, the reliability probe and the fault
// accounting on the compiled world must all be reachable without touching
// internal/.
func TestFaultsThroughFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run in -short mode")
	}
	spec, _ := festivalSpec(80)
	spec.Faults = logmob.ScenarioFaults{
		Impairment: logmob.Impairment{Drop: 0.2, JitterTicks: 2},
		Links:      []logmob.LinkFault{{Pop: "crowd", Impairment: logmob.Impairment{Drop: 0.05}}},
		Churn: []logmob.ChurnFault{{Pop: "crowd", ChurnSchedule: logmob.ChurnSchedule{
			Tick: 10 * time.Second, CrashProb: 0.05, Downtime: 15 * time.Second,
		}}},
		Partitions: []logmob.PartitionFault{{
			At: 90 * time.Second, Heal: 3 * time.Minute, SplitX: 200,
		}},
		Retry:           logmob.RetryFault{Budget: 3, Timeout: 2 * time.Second},
		BeaconMissEvict: 3,
	}
	spec.Probes = append(spec.Probes, logmob.ReliabilityProbe{})
	if err := spec.Validate(); err != nil {
		t.Fatalf("valid faulty spec rejected: %v", err)
	}
	w, table := logmob.RunSpec(spec, 1)
	if table == nil {
		t.Fatal("no summary table")
	}
	if w.Net.FaultStats().Drops == 0 {
		t.Error("no impairment drops at 20% loss")
	}
	if len(w.Reliables) == 0 || len(w.Churns) == 0 {
		t.Error("fault machinery not reachable on the compiled world")
	}
	var sb strings.Builder
	table.Render(&sb)
	if out := sb.String(); !strings.Contains(out, "delivery ratio %") {
		t.Errorf("reliability probe missing from table:\n%s", out)
	}

	// Hostile specs error through the facade, too.
	spec.Faults.Drop = 1.5
	if err := spec.Validate(); err == nil {
		t.Error("Validate accepted loss=1.5")
	}
}
