package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"logmob/internal/scenario"
)

// t12DiffParams shrinks T12 to a differential-test-sized city (same code
// paths — beacon bursts big enough to trigger the parallel warm, mobility
// under the two-phase tick — at a tractable population).
var t12DiffParams = map[string]float64{"residents": 1200, "field": 1000}

// TestWorkersDifferential is the harness-level proof of the parallel tick
// pipeline's core contract: for every experiment family, the rendered
// metrics tables at workers=N are byte-identical to workers=1. The serial
// engine is the oracle; any divergence — one RNG draw out of order, one
// commit out of canonical order — shows up as a table diff.
//
// Two experiments are excluded on principle, not cost: T8 and T10 report
// host wall-clock measurements (sign/verify stopwatches, VM dispatch
// rates), which differ between any two runs regardless of engine. T4 is
// covered through a single mid-speed disaster configuration: its full run
// is the same runDisaster world at five speeds (~90s per run), so one
// configuration exercises the identical engine paths at a fraction of the
// cost; T3 additionally sweeps the same family across densities in full.
//
// T13 joins the sweep at its full parameters, which puts the whole
// adversity layer — impairment and churn draws from the fault RNG, timed
// partition epochs, ack/retry timers — under the same byte-identical
// contract; TestChaosWorkersDifferential additionally isolates each fault
// axis (loss only, churn only, partition only).
func TestWorkersDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	type diffCase struct {
		id string
		fn func(seed int64) string
	}
	renderResult := func(fn func(int64) *Result) func(int64) string {
		return func(seed int64) string {
			var sb strings.Builder
			fn(seed).Render(&sb)
			return sb.String()
		}
	}
	var cases []diffCase
	for _, e := range All() {
		switch e.ID {
		case "T8", "T10": // host wall-clock measurements: never run-to-run stable
			continue
		case "T4":
			cases = append(cases, diffCase{"T4/speed4", func(seed int64) string {
				o := runDisaster(seed+101, 12, 4)
				return fmt.Sprintf("ma=%d/%v cs=%d/%v",
					o.maDelivered, o.maLatency.Values(),
					o.csDelivered, o.csLatency.Values())
			}})
		case "T12":
			cases = append(cases, diffCase{e.ID, renderResult(func(seed int64) *Result {
				return e.RunWith(seed, t12DiffParams)
			})})
		case "T15":
			// Short config: the full metropolis is a multi-minute run, and the
			// sparse-engine paths it exercises are identical at 1.5k residents.
			cases = append(cases, diffCase{e.ID, renderResult(func(seed int64) *Result {
				return e.RunWith(seed, t15ShortParams)
			})})
		case "T16":
			// Short config likewise: the 1M full run lives behind
			// TestT16MegacityFullScale (LOGMOB_T16_FULL=1); the wheel/batch/
			// locality paths it exercises are identical at 2k residents.
			cases = append(cases, diffCase{e.ID, renderResult(func(seed int64) *Result {
				return e.RunWith(seed, t16ShortParams)
			})})
		default:
			cases = append(cases, diffCase{e.ID, renderResult(e.Run)})
		}
	}
	runAt := func(fn func(int64) string, workers int) string {
		scenario.SetDefaultWorkers(workers)
		defer scenario.SetDefaultWorkers(1)
		return fn(1)
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			serial := runAt(c.fn, 1)
			parallel := runAt(c.fn, 4)
			if parallel != serial {
				t.Errorf("%s: workers=4 output differs from the serial engine\n--- workers=4 ---\n%s\n--- workers=1 ---\n%s",
					c.id, parallel, serial)
			}
		})
	}
}

// TestParallelRaceStress runs each shrunken crowd at workers=8 for a short
// horizon. Its job is to give `go test -race` (the CI race job runs -short,
// which includes this test) realistic full-stack workloads over the
// two-phase tick; `-run TestParallelRaceStress/T16` picks one.
func TestParallelRaceStress(t *testing.T) {
	for _, c := range []struct {
		name string
		spec func() *scenario.Spec
	}{
		// Parallel mobility planning, the parallel neighbor-cache warm under
		// a live beacon burst, couriers routing over warmed caches.
		{"T11", func() *scenario.Spec {
			sp := t11Spec(map[string]float64{
				"attendees": 400, "stages": 4, "field": 700, "range": 40, "couriers": 4,
			})
			sp.Warmup = 20 * time.Second
			sp.Duration = 40 * time.Second
			return sp
		}},
		// The full fault machinery — impairment draws, churn SetUp storms,
		// partition epoch bumps, ack/retry timers.
		{"T13", t13ShortSpec},
		// The sparse due-set tick and the region-sharded move commit, forced
		// past its parallel threshold by the dwell-expiry waves.
		{"T15", t15ShortSpec},
		// The batched beacon tick fanning out broadcasts, the timing-wheel
		// drain, the region-bucketed plan/commit pipeline.
		{"T16", t16ShortSpec},
	} {
		t.Run(c.name, func(t *testing.T) {
			sp := c.spec()
			sp.Workers = 8
			if _, table := sp.Run(1); table == nil {
				t.Fatal("stress run produced no summary table")
			}
		})
	}
}

// TestT12Shape sanity-checks the reduced city: the guide reaches part of
// the crowd, couriers deliver, and the run is deterministic per seed.
func TestT12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	e, ok := ByID("t12")
	if !ok {
		t.Fatal("T12 not registered")
	}
	run := func() string {
		var sb strings.Builder
		e.RunWith(1, t12DiffParams).Render(&sb)
		return sb.String()
	}
	first := run()
	if run() != first {
		t.Fatal("T12 is not deterministic for a fixed seed")
	}
	for _, want := range []string{"guides fetched", "couriers delivered", "city/info coverage %"} {
		if !strings.Contains(first, want) {
			t.Errorf("T12 output missing %q:\n%s", want, first)
		}
	}
}
