package sim

import (
	"os"
	"strings"
	"testing"

	"logmob/internal/scenario"
)

// t16ShortParams shrinks the megacity to differential/golden/race size: the
// same code paths — wheel-scheduled batched beacons, O(1) scheduler arming,
// locality-sharded planning feeding the region-sharded commit — at a
// tractable population. Distinct from t15ShortParams so the two shrunken
// worlds pin different goldens.
var t16ShortParams = map[string]float64{
	"residents": 2000, "kiosks": 9, "field": 1400, "couriers": 8, "duration": 120,
}

// t16ShortSpec builds the shrunken megacity spec directly (bypassing the
// Experiment wrapper) so tests can override workers or attach fault blocks.
func t16ShortSpec() *scenario.Spec {
	return t16Spec(withDefaults(T16().Params, t16ShortParams))
}

// TestT16ShortDifferential holds the shrunken megacity byte-identical
// across worker counts, in -short mode too — every CI run proves the PR-10
// engine work (wheel, beacon batches, locality shards) cannot leak worker
// count into results. The full-size experiment joins the long-mode sweep in
// TestWorkersDifferential.
func TestT16ShortDifferential(t *testing.T) {
	run := func(workers int) string {
		sp := t16ShortSpec()
		sp.Workers = workers
		return renderSpecTable(sp, 1)
	}
	serial := run(1)
	if parallel := run(4); parallel != serial {
		t.Errorf("megacity differs across worker counts\n--- workers=4 ---\n%s--- workers=1 ---\n%s",
			parallel, serial)
	}
}

// TestT16Shape sanity-checks the reduced megacity: all four paradigm rows
// render, couriers deliver, and the run is deterministic per seed.
func TestT16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	e, ok := ByID("t16")
	if !ok {
		t.Fatal("T16 not registered")
	}
	run := func() string {
		var sb strings.Builder
		e.RunWith(1, t16ShortParams).Render(&sb)
		return sb.String()
	}
	first := run()
	if run() != first {
		t.Fatal("T16 is not deterministic for a fixed seed")
	}
	for _, want := range []string{
		"cs rounds completed", "rev evals completed", "permits fetched",
		"couriers delivered", "metro/info coverage %", "topology epochs",
		"Table T16",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("T16 output missing %q:\n%s", want, first)
		}
	}
}

// TestT16MegacityFullScale is the acceptance run: one million residents end
// to end, workers=1 vs workers=4 byte-identical. A full double run is tens
// of wall-clock minutes, so it only runs when LOGMOB_T16_FULL=1 (see
// EXPERIMENTS.md); the same engine paths are covered at every `go test` by
// the short differential above.
func TestT16MegacityFullScale(t *testing.T) {
	if os.Getenv("LOGMOB_T16_FULL") == "" {
		t.Skip("set LOGMOB_T16_FULL=1 to run the 1M-node differential (tens of minutes)")
	}
	run := func(workers int) string {
		scenario.SetDefaultWorkers(workers)
		defer scenario.SetDefaultWorkers(1)
		var sb strings.Builder
		T16().Run(1).Render(&sb)
		return sb.String()
	}
	serial := run(1)
	parallel := run(4)
	if parallel != serial {
		t.Errorf("megacity 1M differs across worker counts\n--- workers=4 ---\n%s--- workers=1 ---\n%s",
			parallel, serial)
	}
	t.Logf("megacity 1M nodes byte-identical at workers=1 vs 4:\n%s", serial)
}
