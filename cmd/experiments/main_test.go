package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"

	"logmob/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/list.golden from the current output")

// runCmd runs the command in-process and returns what it wrote and its exit
// code.
func runCmd(args ...string) (stdout, stderr string, code int) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestList(t *testing.T) {
	out, errOut, code := runCmd("-list")
	if code != 0 || errOut != "" {
		t.Fatalf("-list: exit %d, stderr %q", code, errOut)
	}
	for _, e := range sim.All() {
		if !strings.Contains(out, "\n"+e.ID+" ") && !strings.HasPrefix(out, e.ID+" ") {
			t.Errorf("-list does not name %s", e.ID)
		}
	}
	golden := filepath.Join("testdata", "list.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to generate): %v", err)
	}
	if out != string(want) {
		t.Errorf("-list differs from %s (run with -update if intended)\n--- got ---\n%s", golden, out)
	}
}

func TestBadArgumentsFailOnStderr(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-run", "T1,T99"}, `unknown experiment "T99"`},
		{[]string{"-run", "T1", "-sweep", "clients"}, `bad -sweep "clients"`},
		{[]string{"-run", "T1", "-sweep", "clients=1,x"}, `bad -sweep value "x"`},
		{[]string{"-run", "T1", "-seeds", "0"}, "-seeds must be >= 1"},
	} {
		out, errOut, code := runCmd(tc.args...)
		if code != 1 || out != "" || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1, no stdout and %q on stderr",
				tc.args, code, out, errOut, tc.want)
		}
	}
}

func TestRunJSON(t *testing.T) {
	out, errOut, code := runCmd("-run", "t1", "-json")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	var report []jsonExperiment
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("stdout is not the JSON report: %v\n%s", err, out)
	}
	if len(report) != 1 || report[0].ID != "T1" || len(report[0].Replicates) != 1 ||
		report[0].Aggregate != nil || len(report[0].Replicates[0].Tables) == 0 {
		t.Errorf("-run t1 -json: want one experiment T1 with one replicate and tables, got %+v", report)
	}
}

func TestSeedsPrintAnAggregate(t *testing.T) {
	out, errOut, code := runCmd("-run", "T1", "-seeds", "2")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{"--- seed 1 ---", "--- seed 2 ---", "--- aggregate over 2 seeds ---"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}
}

// TestFailingRunClosesItsCPUProfile: a run that fails after -cpuprofile
// started still stops the profiler and leaves a complete profile.
func TestFailingRunClosesItsCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	if _, errOut, code := runCmd("-cpuprofile", path, "-run", "nope"); code != 1 || !strings.Contains(errOut, "unknown experiment") {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Errorf("the failed run left its CPU profile running: %v", err)
	}
	pprof.StopCPUProfile()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not a gzip stream: %v", err)
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		t.Errorf("profile is truncated: %v", err)
	}
}
