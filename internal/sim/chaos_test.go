package sim

import (
	"strings"
	"testing"
	"time"

	"logmob/internal/netsim"
	"logmob/internal/scenario"
)

// t13ShortParams shrinks T13 to smoke/golden size: the full fault schedule
// (escalating loss, churn, partition+heal) over a 200-node crowd and a
// two-minute run. Used by the short-mode golden, the chaos differential and
// the race stress test.
var t13ShortParams = map[string]float64{"attendees": 200, "field": 600, "duration": 120}

// t13ShortSpec builds the shrunken blackout spec directly (bypassing the
// Experiment wrapper) so tests can override its fault block.
func t13ShortSpec() *scenario.Spec {
	return t13Spec(withDefaults(T13().Params, t13ShortParams))
}

func renderSpecTable(sp *scenario.Spec, seed int64) string {
	_, table := sp.Run(seed)
	var sb strings.Builder
	table.Render(&sb)
	return sb.String()
}

// TestFaultDeterminism is the fault-injection reproducibility contract at
// the harness level: the same spec+seed renders identical tables twice, and
// changing only the fault seed — same world seed, same placement, same
// mobility — changes the fault realisation and therefore the table.
func TestFaultDeterminism(t *testing.T) {
	run := func(faultSeed int64) string {
		sp := t13ShortSpec()
		sp.Faults.Seed = faultSeed
		return renderSpecTable(sp, 1)
	}
	first := run(0)
	if second := run(0); second != first {
		t.Fatalf("same spec+seed rendered different tables:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if other := run(99); other == first {
		t.Fatal("different fault seed rendered a byte-identical table — the fault RNG is not being consulted")
	}
}

// TestChaosWorkersDifferential is the chaos half of TestWorkersDifferential:
// every faulty configuration — loss only, churn only, a partition event
// only, and the full blackout schedule — must render byte-identical tables
// at workers=1 and workers=4. Fault draws all happen on the event loop in
// canonical order, so worker count must never leak into a faulty run.
func TestChaosWorkersDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos differential sweep in -short mode")
	}
	configs := []struct {
		name   string
		faults scenario.Faults
	}{
		{"loss", scenario.Faults{
			Impairment: netsim.Impairment{Drop: 0.3, JitterTicks: 3},
			Retry:      scenario.RetryFault{Budget: 3, Timeout: 2 * time.Second},
		}},
		{"churn", scenario.Faults{
			Churn: []scenario.ChurnFault{{Pop: "a", ChurnSchedule: netsim.ChurnSchedule{
				Tick: 10 * time.Second, CrashProb: 0.05, Downtime: 15 * time.Second,
			}}},
		}},
		{"partition", scenario.Faults{
			Partitions: []scenario.PartitionFault{{
				At: 60 * time.Second, Heal: 100 * time.Second, SplitX: 300,
			}},
		}},
		{"blackout", scenario.Faults{}}, // zero = keep T13's own full schedule
		// The metropolis under adversity: churn crashes and rejoins residents
		// mid-dwell while a partition splits the district lattice — the sparse
		// engine's rejoin path under the same byte-identical contract.
		{"metropolis", scenario.Faults{
			Impairment: netsim.Impairment{Drop: 0.15, JitterTicks: 2},
			Churn: []scenario.ChurnFault{{Pop: "r", ChurnSchedule: netsim.ChurnSchedule{
				Tick: 10 * time.Second, CrashProb: 0.03, Downtime: 25 * time.Second,
			}}},
			Partitions: []scenario.PartitionFault{{
				At: 50 * time.Second, Heal: 110 * time.Second, SplitX: 600,
			}},
			Retry: scenario.RetryFault{Budget: 3, Timeout: 2 * time.Second},
		}},
		// The megacity config: churn repeatedly parks and wakes residents
		// whose beacons ride a shared batch tick — beacons must stop while a
		// node is down and resume on SetUp(true) rejoin without a per-host
		// timer — while the timing wheel drains fault-jittered deliveries.
		{"megacity", scenario.Faults{
			Impairment: netsim.Impairment{Drop: 0.2, JitterTicks: 3},
			Churn: []scenario.ChurnFault{{Pop: "r", ChurnSchedule: netsim.ChurnSchedule{
				Tick: 8 * time.Second, CrashProb: 0.05, Downtime: 20 * time.Second,
			}}},
			Partitions: []scenario.PartitionFault{{
				At: 40 * time.Second, Heal: 95 * time.Second, SplitX: 700,
			}},
			Retry: scenario.RetryFault{Budget: 3, Timeout: 2 * time.Second},
		}},
	}
	for _, c := range configs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			run := func(workers int) string {
				sp := t13ShortSpec()
				switch c.name {
				case "metropolis":
					sp = t15ShortSpec()
				case "megacity":
					sp = t16ShortSpec()
				}
				if !c.faults.IsZero() {
					sp.Faults = c.faults
				}
				sp.Workers = workers
				return renderSpecTable(sp, 1)
			}
			serial := run(1)
			if parallel := run(4); parallel != serial {
				t.Errorf("faulty config %q differs across worker counts\n--- workers=4 ---\n%s--- workers=1 ---\n%s",
					c.name, parallel, serial)
			}
		})
	}
}

// TestT13TinyCrowd pins the degenerate sweep case: fewer attendees than
// CS+REV client slots must run (stages without a client field none), not
// panic on a nil host.
func TestT13TinyCrowd(t *testing.T) {
	res := T13().RunWith(1, map[string]float64{"attendees": 4, "duration": 60})
	if len(res.Tables) == 0 {
		t.Fatal("tiny-crowd blackout produced no table")
	}
}

// TestT13ShapeHolds sanity-checks the blackout story on the default seed:
// every paradigm row renders, adversity actually bites (drops, crashes and
// retries all nonzero), and the run is deterministic.
func TestT13ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	sp := t13ShortSpec()
	w, table := sp.Run(1)
	var sb strings.Builder
	table.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		"cs rounds completed", "rev evals completed", "kits fetched",
		"couriers delivered", "delivery ratio %", "retries / gave up",
		"churn crashes / rejoins", "mean time-to-repair s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("T13 table missing %q:\n%s", want, out)
		}
	}
	if fs := w.Net.FaultStats(); fs.Drops == 0 || fs.Jittered == 0 {
		t.Errorf("adversity did not bite: %+v", fs)
	}
	var crashes int64
	for _, c := range w.Churns {
		crashes += c.Stats.Crashes
	}
	if crashes == 0 {
		t.Error("churn never crashed an attendee")
	}
	var retries int64
	for _, r := range w.Reliables {
		retries += r.Stats().Retries
	}
	if retries == 0 {
		t.Error("the ack/retry layer never retried under 15-37% loss")
	}
}

// TestT13AggregatesAcrossSeeds checks the multi-seed path: replicated
// blackout runs aggregate into a mean±stddev table without shape mismatch
// (fault tables must keep identical shapes across seeds).
func TestT13AggregatesAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated experiment run in -short mode")
	}
	multi := scenario.RunSeeds(1, 3, 3, func(seed int64) *Result {
		return T13().RunWith(seed, t13ShortParams)
	})
	if multi.Aggregate == nil || len(multi.Aggregate.Tables) == 0 {
		t.Fatal("no aggregate table over 3 seeds")
	}
	for _, note := range multi.Aggregate.Notes {
		if strings.Contains(note, "not aggregated") {
			t.Errorf("aggregate shape mismatch: %s", note)
		}
	}
	if rows := multi.Aggregate.Tables[0].Rows(); rows == 0 {
		t.Error("aggregate table is empty")
	}
}
