package sim

import (
	"strings"
	"testing"

	"logmob/internal/scenario"
)

func TestByIDCaseInsensitive(t *testing.T) {
	for _, id := range []string{"t11", "T11", "t3", "a1"} {
		e, ok := ByID(id)
		if !ok {
			t.Errorf("ByID(%q) failed", id)
			continue
		}
		if e.ID != strings.ToUpper(id) {
			t.Errorf("ByID(%q) returned canonical ID %q", id, e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
}

// t11Small is T11 shrunk through its sweepable parameters, so replication
// tests run the real festival path in a fraction of the time.
var t11Small = map[string]float64{
	"attendees": 150, "stages": 2, "field": 400, "range": 40, "couriers": 3,
}

// TestT11ParallelReplicatesMatchSerial is the acceptance check for the
// multi-seed runner: running the spec-backed T11 across seeds in parallel
// must produce per-seed results byte-identical to serial runs, and an
// aggregate table must come out of the multi-seed run.
func TestT11ParallelReplicatesMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	e := T11()
	run := func(parallel int) *scenario.MultiResult {
		return scenario.RunSeeds(1, 4, parallel, func(seed int64) *Result { return e.RunWith(seed, t11Small) })
	}
	serial, par := run(1), run(4)
	for i := range serial.Replicates {
		var a, b strings.Builder
		serial.Replicates[i].Result.Render(&a)
		par.Replicates[i].Result.Render(&b)
		if a.String() != b.String() {
			t.Errorf("seed %d: parallel run diverged from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
				serial.Replicates[i].Seed, a.String(), b.String())
		}
	}
	if par.Aggregate == nil || len(par.Aggregate.Tables) != 1 {
		t.Fatal("multi-seed run produced no aggregate table")
	}
	if !strings.Contains(par.Aggregate.Title, "mean±stddev over 4 seeds") {
		t.Errorf("aggregate title %q", par.Aggregate.Title)
	}
}

// TestFromSpecParamOverrides checks that sweep parameters actually reshape
// the built spec: attendee count shows up in the table title and the crowd
// population.
func TestFromSpecParamOverrides(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	res := T11().RunWith(1, t11Small)
	if len(res.Tables) != 1 {
		t.Fatalf("tables = %d", len(res.Tables))
	}
	if !strings.Contains(res.Tables[0].Title, "150 attendees + 2 stages") {
		t.Errorf("param overrides not applied: %q", res.Tables[0].Title)
	}
	// Defaults still fill unswept parameters.
	if !strings.Contains(res.Tables[0].Title, "range 40m") {
		t.Errorf("default parameter missing: %q", res.Tables[0].Title)
	}
}
