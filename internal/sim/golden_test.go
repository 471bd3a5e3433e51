package sim

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite golden files from the current implementation")

// checkGolden renders one experiment result and compares it byte-for-byte
// against testdata/<name>.golden, rewriting the file under -update.
func checkGolden(t *testing.T, name string, res *Result) {
	t.Helper()
	var sb strings.Builder
	res.Render(&sb)
	got := sb.String()
	path := filepath.Join("testdata", name+".golden")
	if *updateGoldens {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to generate): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output differs from golden\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestPortedExperimentGoldens pins the default-seed rendered output of
// every deterministic experiment family. The T1/T5/T11 goldens were
// generated from the pre-port hand-wired implementations and must stay
// byte-identical across refactors; T2/T3/T6/T7/T9/A3 pin the remaining
// families so engine work (the parallel tick port, the adversity layer) is
// caught by a byte diff on every family, not just three; T14/A1/A2 pin the
// adaptation loop, the eviction policies and the deciders. T8 and T10 have
// no goldens: they report host wall-clock measurements. T4 (13.7 s) shares
// its world-building code with T3 and is held by TestWorkersDifferential's
// mid-speed config. With every Spec.Faults block zero-valued, these goldens
// double as the proof that the adversity layer is inert when off.
func TestPortedExperimentGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	cases := []struct {
		id  string
		run func(seed int64) *Result
	}{
		{"T1", runT1},
		{"T2", runT2},
		{"T3", runT3},
		{"T5", runT5},
		{"T6", runT6},
		{"T7", runT7},
		{"T9", runT9},
		{"T11", T11().Run},
		{"T14", T14().Run},
		{"A1", runA1},
		{"A2", runA2},
		{"A3", runA3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, strings.ToLower(tc.id)+"_seed1", tc.run(1))
		})
	}
}

// TestT12ShortGolden pins the shrunken city run byte-for-byte (the COD wave
// and the couriers sharing one crowd, with no CS/REV clients), in -short
// mode too.
func TestT12ShortGolden(t *testing.T) {
	checkGolden(t, "t12_short_seed1", T12().RunWith(1, t12DiffParams))
}

// TestT13ShortGolden pins the shrunken blackout run byte-for-byte. Unlike
// the full-size goldens it runs in -short mode too, so the CI race job
// diffs the fault layer's output on every run, not just the long suite.
func TestT13ShortGolden(t *testing.T) {
	checkGolden(t, "t13_short_seed1", T13().RunWith(1, t13ShortParams))
}

// TestT15ShortGolden pins the shrunken metropolis run byte-for-byte, in
// -short mode too: every CI run diffs the sparse-tick engine's output, and
// -update regenerations of the hierarchy/sparse-tick behavior stay
// reviewable.
func TestT15ShortGolden(t *testing.T) {
	checkGolden(t, "t15_short_seed1", T15().RunWith(1, t15ShortParams))
}

// TestT16ShortGolden pins the shrunken megacity run byte-for-byte, in
// -short mode too: every CI run diffs the timing-wheel scheduler, the
// batched beacon cadence and the locality-sharded planner against a
// committed rendering.
func TestT16ShortGolden(t *testing.T) {
	checkGolden(t, "t16_short_seed1", T16().RunWith(1, t16ShortParams))
}
