// Command benchgate guards the allocation-slashing work: it compares a fresh
// `go test -bench -json` run against the committed baseline
// (BENCH_logmob.json) and exits non-zero when a hot benchmark regressed by
// more than the tolerance on ns/op or allocs/op.
//
// Usage:
//
//	go test -run '^$' -bench 'T3|T4' -benchtime 1x -benchmem -json . > new.json
//	go run ./cmd/benchgate -baseline BENCH_logmob.json -new new.json
//
// The default watch list is the hot set the perf campaign optimised; pass
// -benches to subset it (CI runs a short subset on pull requests and the
// full list on main). A bench missing from the new run fails the gate — a
// silently-skipped benchmark must not read as a pass — while a bench missing
// from the baseline only warns, so new benchmarks can land before the next
// baseline refresh.
//
// With -json, violations are emitted as a findings.Report — the same schema
// cmd/logmoblint emits — with check "regression" or "missing-bench" per
// finding, so one downstream consumer handles both tools.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"logmob/internal/findings"
)

// defaultBenches is the hot set: the end-to-end experiment benches the
// campaign's acceptance criteria name plus the micro-benches over the pooled
// paths. BenchmarkT15Metropolis gates the sparse-tick engine (time wheel +
// hierarchical grid) end to end at the metropolis scenario's short config.
// BenchmarkSchedulerArm/wheel/n100000 gates the timing-wheel event queue's
// arm+fire cost at six-figure timer counts, BenchmarkBeaconCadence's batch
// row gates the shared beacon tick it feeds, and BenchmarkBeaconHear/known
// (internal/discovery) gates one beacon reception at zero allocations.
const defaultBenches = "BenchmarkT3Disaster,BenchmarkT4DisasterLatency,BenchmarkT11FestivalScale,BenchmarkT14AdaptiveLoop,BenchmarkT15Metropolis,BenchmarkDecide,BenchmarkLMUPackUnpack,BenchmarkReadFrame,BenchmarkVMEval,BenchmarkSchedulerArm/wheel/n100000,BenchmarkBeaconCadence/batch/n10000,BenchmarkBeaconHear/known"

// Result holds one benchmark's measurements.
type Result struct {
	NsPerOp     float64
	AllocsPerOp float64
	BytesPerOp  float64
	HasAllocs   bool
}

// event is the subset of test2json's output we need.
type event struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// ParseTestJSON reads a `go test -json` stream and returns the benchmark
// results keyed by benchmark name (with any -GOMAXPROCS suffix stripped).
// Benchmark result lines may be split across several output events, so the
// stream's output is reassembled into plain text first.
func ParseTestJSON(r io.Reader) (map[string]Result, error) {
	var text strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("benchgate: bad test2json line %q: %w", line, err)
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return parseBenchLines(text.String()), nil
}

// parseBenchLines extracts benchmark results from plain `go test -bench`
// output.
func parseBenchLines(text string) map[string]Result {
	out := make(map[string]Result)
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix so names match across machines.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var res Result
		// fields[1] is the iteration count; the rest are "value unit" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
				res.HasAllocs = true
			}
		}
		if res.NsPerOp > 0 {
			out[name] = res
		}
	}
	return out
}

// Regression describes one gate violation.
type Regression struct {
	Bench  string
	Metric string
	Old    float64
	New    float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s regressed %.4g -> %.4g (%+.1f%%)",
		r.Bench, r.Metric, r.Old, r.New, 100*(r.New/r.Old-1))
}

// Gate compares the watched benches and returns every regression beyond tol
// (0.10 = 10%) plus the list of watched benches absent from the new run.
func Gate(baseline, fresh map[string]Result, benches []string, tol float64) (regs []Regression, missing []string, skipped []string) {
	for _, name := range benches {
		base, inBase := baseline[name]
		cur, inNew := fresh[name]
		if !inBase {
			skipped = append(skipped, name)
			continue
		}
		if !inNew {
			missing = append(missing, name)
			continue
		}
		if base.NsPerOp > 0 && cur.NsPerOp > base.NsPerOp*(1+tol) {
			regs = append(regs, Regression{Bench: name, Metric: "ns/op", Old: base.NsPerOp, New: cur.NsPerOp})
		}
		if base.HasAllocs && cur.HasAllocs && cur.AllocsPerOp > base.AllocsPerOp*(1+tol) {
			regs = append(regs, Regression{Bench: name, Metric: "allocs/op", Old: base.AllocsPerOp, New: cur.AllocsPerOp})
		}
	}
	return regs, missing, skipped
}

// Report converts gate violations into the shared findings schema.
func Report(regs []Regression, missing []string) *findings.Report {
	rep := &findings.Report{Tool: "benchgate"}
	for _, name := range missing {
		rep.Findings = append(rep.Findings, findings.Finding{
			Tool:    "benchgate",
			Check:   "missing-bench",
			Bench:   name,
			Message: "watched benchmark missing from new run",
		})
	}
	for _, r := range regs {
		rep.Findings = append(rep.Findings, findings.Finding{
			Tool:  "benchgate",
			Check: "regression",
			Bench: r.Bench,
			Message: fmt.Sprintf("%s regressed %.4g -> %.4g (%+.1f%%)",
				r.Metric, r.Old, r.New, 100*(r.New/r.Old-1)),
		})
	}
	rep.Sort()
	return rep
}

func parseFile(path string) (map[string]Result, error) {
	if path == "-" {
		return ParseTestJSON(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseTestJSON(f)
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_logmob.json", "committed baseline (go test -json stream)")
	newPath := flag.String("new", "-", "fresh run to gate (go test -json stream), - for stdin")
	benchList := flag.String("benches", defaultBenches, "comma-separated benchmarks to gate")
	tol := flag.Float64("tol", 0.10, "allowed fractional regression per metric")
	jsonOut := flag.Bool("json", false, "emit violations as a JSON findings.Report")
	flag.Parse()

	baseline, err := parseFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: baseline: %v\n", err)
		os.Exit(2)
	}
	fresh, err := parseFile(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: new run: %v\n", err)
		os.Exit(2)
	}

	benches := strings.Split(*benchList, ",")
	for i := range benches {
		benches[i] = strings.TrimSpace(benches[i])
	}
	regs, missing, skipped := Gate(baseline, fresh, benches, *tol)

	if *jsonOut {
		rep := Report(regs, missing)
		if err := rep.Encode(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		if len(rep.Findings) > 0 {
			os.Exit(1)
		}
		return
	}

	for _, name := range skipped {
		fmt.Printf("skip %s: not in baseline (refresh BENCH_logmob.json to gate it)\n", name)
	}
	for _, name := range benches {
		base, ok1 := baseline[name]
		cur, ok2 := fresh[name]
		if ok1 && ok2 {
			fmt.Printf("ok   %s: ns/op %.4g -> %.4g (%+.1f%%), allocs/op %.4g -> %.4g\n",
				name, base.NsPerOp, cur.NsPerOp, 100*(cur.NsPerOp/base.NsPerOp-1),
				base.AllocsPerOp, cur.AllocsPerOp)
		}
	}
	fail := false
	for _, name := range missing {
		fmt.Printf("FAIL %s: watched benchmark missing from new run\n", name)
		fail = true
	}
	for _, r := range regs {
		fmt.Printf("FAIL %s\n", r)
		fail = true
	}
	if fail {
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within %.0f%% of baseline\n",
		len(benches)-len(skipped)-len(missing), *tol*100)
}
