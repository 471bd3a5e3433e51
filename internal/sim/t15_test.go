package sim

import (
	"strings"
	"testing"

	"logmob/internal/scenario"
)

// t15ShortParams shrinks the metropolis to differential/golden/race size:
// the same code paths — sparse ticking over a dwell-heavy crowd,
// hierarchical grid queries, all four paradigms — at a tractable
// population.
var t15ShortParams = map[string]float64{
	"residents": 1500, "kiosks": 9, "field": 1200, "couriers": 8, "duration": 120,
}

// t15ShortSpec builds the shrunken metropolis spec directly (bypassing the
// Experiment wrapper) so tests can override workers or attach fault blocks.
func t15ShortSpec() *scenario.Spec {
	return t15Spec(withDefaults(T15().Params, t15ShortParams))
}

// TestT15Shape sanity-checks the reduced metropolis: all four paradigm rows
// render, couriers deliver, and the run is deterministic per seed.
func TestT15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	e, ok := ByID("t15")
	if !ok {
		t.Fatal("T15 not registered")
	}
	run := func() string {
		var sb strings.Builder
		e.RunWith(1, t15ShortParams).Render(&sb)
		return sb.String()
	}
	first := run()
	if run() != first {
		t.Fatal("T15 is not deterministic for a fixed seed")
	}
	for _, want := range []string{
		"cs rounds completed", "rev evals completed", "permits fetched",
		"couriers delivered", "metro/info coverage %", "topology epochs",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("T15 output missing %q:\n%s", want, first)
		}
	}
}
