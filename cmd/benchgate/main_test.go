package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// The committed history, two levels up, with BENCHMARK.json beside it.
const historyPath = "../../BENCH_logmob.json"

func loadBenchmark(t *testing.T) benchmark {
	t.Helper()
	var b benchmark
	if err := readJSON(filepath.Join(filepath.Dir(historyPath), "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != 6 || len(b.EndToEnd) != 7 {
		t.Fatalf("BENCHMARK.json names %d workloads and %d end-to-end metrics, want 6 and 7", len(b.Workloads), len(b.EndToEnd))
	}
	return b
}

// run100 is a correct run of every workload of b in which every metric
// reads 100, but for workload's metric name, which reads 100*factor.
func run100(b benchmark, workload, name string, factor float64) document {
	doc := document{EndToEnd: map[string]result{}}
	for _, w := range b.Workloads {
		r := result{Correct: true, Attempted: 10, Metrics: map[string]metric{}}
		for _, m := range b.EndToEnd {
			r.Metrics[m.Name] = metric{Value: 100}
		}
		if w.Name == workload {
			r.Metrics[name] = metric{Value: 100 * factor}
		}
		doc.EndToEnd[w.Name] = r
	}
	return doc
}

// gateRun gates doc against a record of the all-100 run made with toolchain
// recordedWith, checks that each failure contains its want, in order, and
// returns what was printed.
func gateRun(t *testing.T, doc document, recordedWith string, want ...string) string {
	t.Helper()
	b := loadBenchmark(t)
	var out bytes.Buffer
	failures := gate(&out, b, record{PR: 15, Go: recordedWith, document: run100(b, "", "", 1)}, doc, "go1.24.0")
	if len(failures) != len(want) {
		t.Fatalf("failures %q, want %q", failures, want)
	}
	for i := range want {
		if !strings.Contains(failures[i], want[i]) {
			t.Errorf("failure %q, want it to contain %q", failures[i], want[i])
		}
	}
	return out.String()
}

// A count 3 % worse on one workload fails and names workload and metric.
func TestGateFailsOnAllocRegression(t *testing.T) {
	b := loadBenchmark(t)
	gateRun(t, run100(b, "festival", "allocs_per_op", 1.03), "go1.24.0", "festival allocs_per_op: 103 against PR 15's 100 is +3.00%, more than 2% worse")
	gateRun(t, run100(b, "disaster", "alloc_mb_per_op", 1.03), "go1.24.0", "disaster alloc_mb_per_op")
}

func TestGatePassesWithinTolerance(t *testing.T) {
	b := loadBenchmark(t)
	gateRun(t, run100(b, "wire_bulk", "allocs_per_op", 1.019), "go1.24.0")
	gateRun(t, run100(b, "wire_bulk", "allocs_per_op", 0.981), "go1.24.0")
	gateRun(t, run100(b, "", "", 1), "go1.24.7") // a patch release is the same minor version
}

// A count 3 % better fails until the run is the history's last record.
func TestGateUnrecordedImprovement(t *testing.T) {
	b := loadBenchmark(t)
	better := run100(b, "blackout", "allocs_per_op", 0.97)
	gateRun(t, better, "go1.24.0", "blackout allocs_per_op: 97 against PR 15's 100 is -3.00%, more than 2% better (record it")

	history := filepath.Join(t.TempDir(), "history.json")
	if err := appendRecord(history, "PR 15: before", b, nil, run100(b, "", "", 1)); err != nil {
		t.Fatal(err)
	}
	records, err := readHistory(history)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRecord(history, "PR 16: fewer allocations", b, records, better); err != nil {
		t.Fatal(err)
	}
	if records, err = readHistory(history); err != nil || len(records) != 2 {
		t.Fatalf("history after two appends: %d records, %v", len(records), err)
	}
	last := records[1]
	if last.PR != 16 || last.Title != "fewer allocations" || last.Seconds != b.RunSeconds || last.Go != runtime.Version() || last.Box == "" {
		t.Errorf("appended record reads %+v", last)
	}
	if failures := gate(&bytes.Buffer{}, b, last, better, last.Go); len(failures) != 0 {
		t.Errorf("the recorded run against its own record: %q", failures)
	}
}

// A workload BENCHMARK.json names must be in the run, correct and without a
// failed op; one it does not name is skipped.
func TestGateMissingAndSkipped(t *testing.T) {
	doc := run100(loadBenchmark(t), "", "", 1)
	delete(doc.EndToEnd, "disaster")
	wrong := doc.EndToEnd["festival"]
	wrong.Correct = false
	doc.EndToEnd["festival"] = wrong
	failed := doc.EndToEnd["wire_mix"]
	failed.Failed = 2
	doc.EndToEnd["wire_mix"] = failed
	doc.EndToEnd["not_a_workload"] = result{}
	gateRun(t, doc, "go1.24.0", "festival: correct=false", "disaster: missing", "wire_mix: correct=true, 2 of 10 ops failed")
}

func TestGateFailsOnToolchainChange(t *testing.T) {
	gateRun(t, run100(loadBenchmark(t), "", "", 1), "go1.23.4", "recorded with go1.23.4, this is go1.24.0")
}

// A run 40 % slower, or with 40 % more resident memory, passes when the
// counts held, and the ratio is printed.
func TestGateNeverGatesTime(t *testing.T) {
	b := loadBenchmark(t)
	for _, name := range []string{"op_wall_s", "peak_rss_mb"} {
		out := gateRun(t, run100(b, "metropolis", name, 1.4), "go1.24.0")
		if want := "metropolis " + name + " 100 140 1.400"; !strings.Contains(strings.Join(strings.Fields(out), " "), want) {
			t.Errorf("no line reads %s:\n%s", want, out)
		}
	}
}

func TestRecordRefused(t *testing.T) {
	b := loadBenchmark(t)
	incomplete := run100(b, "", "", 1)
	delete(incomplete.EndToEnd, "wire_bulk")
	history := filepath.Join(t.TempDir(), "history.json")
	for title, doc := range map[string]document{
		"sixteen":                   run100(b, "", "", 1),
		"PR 15: not after the last": run100(b, "", "", 1),
		"PR 16: a workload short":   incomplete,
	} {
		if err := appendRecord(history, title, b, []record{{PR: 15}}, doc); err == nil {
			t.Errorf("-record %q was accepted", title)
		}
	}
	if records, err := readHistory(history); err != nil || len(records) != 0 {
		t.Errorf("refused records wrote %d lines (%v)", len(records), err)
	}
}

// TestHistoryWellFormed reads the committed trajectory: every line decodes,
// pr strictly increases, and every record is a complete, correct run of the
// six workloads and seven end-to-end metrics BENCHMARK.json names.
func TestHistoryWellFormed(t *testing.T) {
	b := loadBenchmark(t)
	records, err := readHistory(historyPath)
	if err != nil || len(records) == 0 {
		t.Fatalf("committed history: %d records, %v", len(records), err)
	}
	for i, rec := range records {
		if i > 0 && rec.PR <= records[i-1].PR {
			t.Errorf("record %d: PR %d does not come after PR %d", i+1, rec.PR, records[i-1].PR)
		}
		if rec.Title == "" || rec.Go == "" || rec.Box == "" || rec.Seconds <= 0 || len(rec.EndToEnd) != len(b.Workloads) {
			t.Errorf("PR %d: title, go, box or seconds is empty, or it has %d workloads", rec.PR, len(rec.EndToEnd))
		}
		for _, f := range check(b, rec.document) {
			t.Errorf("PR %d: %s", rec.PR, f)
		}
	}
}

// TestGateAgainstCommittedHistory gates the last committed record against
// itself.
func TestGateAgainstCommittedHistory(t *testing.T) {
	records, err := readHistory(historyPath)
	if err != nil || len(records) == 0 {
		t.Fatalf("committed history: %d records, %v", len(records), err)
	}
	last := records[len(records)-1]
	if failures := gate(&bytes.Buffer{}, loadBenchmark(t), last, last.document, last.Go); len(failures) != 0 {
		t.Errorf("PR %d against itself: %q", last.PR, failures)
	}
}
