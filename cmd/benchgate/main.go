// Command benchgate keeps the benchmark's trajectory and gates on it.
// BENCH_logmob.json is the trajectory: one record per line, appended, never
// rewritten — a `bash bench/run.sh -json` document under the PR it measured,
// the toolchain and the box. The gate compares a fresh document with the
// last record.
//
//	bash bench/run.sh -json | go run ./cmd/benchgate                                gate
//	bash bench/run.sh -json -trace 1 | go run ./cmd/benchgate -record 'PR 16: ...'  append a record
//
// Only the two count metrics gate, at the bounds BENCHMARK.json (beside the
// history) gives them: they belong to the code, the Go minor version and the
// one thread bench/ pins, and a two-second run reads what a ten-second one
// does. A count worse than the record by more than its bound fails; so does
// one better by more than its bound ("record it": appended, the new record
// is what the run is compared with), a workload that is missing or wrong,
// and a record made with another Go minor version. Times are printed beside
// the record's and never gated: bench/README.md, "Why the minimum, why one
// thread", is the noise study.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// gated names the metrics that gate. peak_rss_mb looks like them but is a
// 25 % metric the neighbours move; every bound is read from BENCHMARK.json.
var gated = map[string]bool{"allocs_per_op": true, "alloc_mb_per_op": true}

// benchmark is what the gate reads of BENCHMARK.json.
type benchmark struct {
	RunSeconds float64                 `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []struct {
		Name, Better string
		Bound        float64
	} `json:"end_to_end"`
}

// document is what `bash bench/run.sh -json` prints; per_layer is there when
// the run was -trace 1.
type document struct {
	EndToEnd map[string]result  `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of the history.
type record struct {
	PR      int     `json:"pr"`
	Title   string  `json:"title"`
	Go      string  `json:"go"`
	Box     string  `json:"box"`
	Seconds float64 `json:"seconds"`
	document
}

// check returns what makes a document unfit to gate or to record: a workload
// that is missing, computed a wrong answer, failed an op or lacks a metric.
func check(b benchmark, doc document) []string {
	var failures []string
	for _, w := range b.Workloads {
		r, ok := doc.EndToEnd[w.Name]
		switch {
		case !ok:
			failures = append(failures, w.Name+": missing from the run")
		case !r.Correct || r.Failed > 0:
			failures = append(failures, fmt.Sprintf("%s: correct=%v, %d of %d ops failed", w.Name, r.Correct, r.Failed, r.Attempted))
		default:
			for _, m := range b.EndToEnd {
				if _, ok := r.Metrics[m.Name]; !ok {
					failures = append(failures, w.Name+" "+m.Name+": missing from the run")
				}
			}
		}
	}
	return failures
}

// goMinor cuts "go1.24.3" down to "go1.24".
func goMinor(version string) string {
	parts := strings.SplitN(version, ".", 3)
	return strings.Join(parts[:min(2, len(parts))], ".")
}

// gate prints every metric of doc beside the record's and returns the
// failures.
func gate(out io.Writer, b benchmark, last record, doc document, goVersion string) []string {
	failures := check(b, doc)
	if goMinor(last.Go) != goMinor(goVersion) {
		failures = append(failures, fmt.Sprintf("toolchain: PR %d was recorded with %s, this is %s; counts belong to a Go minor version: record it",
			last.PR, last.Go, goVersion))
	}
	fmt.Fprintf(out, "%-11s %-16s %14s %14s %7s\n", "workload", "metric", fmt.Sprint("PR ", last.PR), "this run", "ratio")
	for _, w := range b.Workloads {
		if _, ok := doc.EndToEnd[w.Name]; !ok {
			continue
		}
		for _, m := range b.EndToEnd {
			old, cur := last.EndToEnd[w.Name].Metrics[m.Name].Value, doc.EndToEnd[w.Name].Metrics[m.Name].Value
			fmt.Fprintf(out, "%-11s %-16s %14.6g %14.6g %7.3f\n", w.Name, m.Name, old, cur, cur/old)
			worse := cur/old - 1
			if m.Better == "higher" {
				worse = -worse
			}
			if !gated[m.Name] || (worse <= m.Bound && worse >= -m.Bound) {
				continue
			}
			verdict := "worse"
			if worse < 0 {
				verdict = "better (record it: -record 'PR N: title')"
			}
			failures = append(failures, fmt.Sprintf("%s %s: %.6g against PR %d's %.6g is %+.2f%%, more than %g%% %s",
				w.Name, m.Name, cur, last.PR, old, (cur/old-1)*100, m.Bound*100, verdict))
		}
	}
	return failures
}

// readHistory reads every record of the history; a file that does not exist
// yet is an empty history.
func readHistory(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) || (err == nil && len(data) == 0) {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	var records []record
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
		records = append(records, rec)
	}
	return records, nil
}

// appendRecord adds doc to the history under the title "PR N: ...". Seconds
// is what BENCHMARK.json asks for: a record is a run of the command as it
// names it.
func appendRecord(path, title string, b benchmark, records []record, doc document) error {
	rec := record{Go: runtime.Version(), Seconds: b.RunSeconds, document: doc,
		Box: fmt.Sprintf("%s/%s, %d cpu%s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), cpuModel())}
	if _, err := fmt.Sscanf(title, "PR %d:", &rec.PR); err != nil {
		return fmt.Errorf("-record %q: want 'PR N: title'", title)
	}
	_, rec.Title, _ = strings.Cut(title, ": ")
	if n := len(records); n > 0 && rec.PR <= records[n-1].PR {
		return fmt.Errorf("-record: PR %d does not come after the last record, PR %d", rec.PR, records[n-1].PR)
	}
	if failures := check(b, doc); len(failures) > 0 {
		return fmt.Errorf("not recorded:\n  %s", strings.Join(failures, "\n  "))
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	return errors.Join(err, f.Close())
}

// cpuModel is /proc/cpuinfo's first model name, or nothing off Linux.
func cpuModel() string {
	cpuinfo, _ := os.ReadFile("/proc/cpuinfo")
	_, rest, _ := strings.Cut(string(cpuinfo), "model name")
	model, _, _ := strings.Cut(rest, "\n")
	return strings.TrimRight(", "+strings.Trim(model, " \t:"), ", ")
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func run(historyPath, newPath, recordAs string, out io.Writer) error {
	var b benchmark
	var doc document
	if err := readJSON(filepath.Join(filepath.Dir(historyPath), "BENCHMARK.json"), &b); err != nil {
		return err
	}
	if err := readJSON(newPath, &doc); err != nil {
		return err
	}
	records, err := readHistory(historyPath)
	if err != nil {
		return err
	}
	if recordAs != "" {
		return appendRecord(historyPath, recordAs, b, records, doc)
	}
	if len(records) == 0 {
		return fmt.Errorf("%s holds no record to gate against: append one with -record", historyPath)
	}
	last := records[len(records)-1]
	if failures := gate(out, b, last, doc, runtime.Version()); len(failures) > 0 {
		return fmt.Errorf("%d failure(s) against PR %d:\n  FAIL %s", len(failures), last.PR, strings.Join(failures, "\n  FAIL "))
	}
	fmt.Fprintf(out, "benchgate: every count within its bound of PR %d (%s, %s)\n", last.PR, last.Go, last.Box)
	return nil
}

func main() {
	history := flag.String("history", "BENCH_logmob.json", "the trajectory, one record per line; the last one is the reference")
	newRun := flag.String("new", "/dev/stdin", "the `bash bench/run.sh -json` document to gate or record")
	recordAs := flag.String("record", "", "append the run to the history as 'PR N: title' instead of gating it")
	flag.Parse()
	if err := run(*history, *newRun, *recordAs, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
