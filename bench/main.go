// Command bench is logmob's benchmark: six fixed-seed workloads measured
// end to end, and a traced mode that measures each layer from outside.
//
//	bash bench/run.sh                       every workload, end-to-end metrics
//	bash bench/run.sh -trace 1              also the per-layer set, trace.json, cpu.pprof, layers.json
//	bash bench/run.sh -workload festival    one workload; last stdout line is the result object
//	bash bench/run.sh -aa 3                 two interleaved sets of 3 runs, compared against the bounds
//
// README.md defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceDir string
	jsonOut  bool
	aa       int
}

func main() {
	start := time.Now()
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload, in this process")
	flag.StringVar(&o.workload, "only", "", "alias of -workload")
	flag.Int64Var(&o.seed, "seed", 1, "seed the order of every workload's ops is drawn from")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "seconds of timed rounds per workload")
	flag.IntVar(&o.trace, "trace", 0, "1 runs traced and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.traceDir, "tracedir", ".bench_trace", "directory a traced run writes trace.json, cpu.pprof and layers.json under")
	flag.BoolVar(&o.jsonOut, "json", false, "suite: print every workload's result object as one JSON document")
	flag.IntVar(&o.aa, "aa", 0, "run the untraced suite as two interleaved sets of N runs and compare them against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case o.workload != "":
		err = runOne(o, start)
	case o.aa > 0:
		err = runAA(o)
	default:
		err = runSuite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string) (workload, error) {
	if _, ok := wireSpecs[name]; ok {
		return newWireWork(name)
	}
	if _, ok := simParams[name]; ok {
		return newSimWork(name)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a single-workload run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func withUnits(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// runOne runs one workload in this process and prints its metrics, the
// result object last.
func runOne(o options, start time.Time) error {
	// One hardware thread: see README.md, "Why the minimum, why one thread".
	runtime.GOMAXPROCS(1)
	w, err := newWorkload(o.workload)
	if err != nil {
		return err
	}
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	run, err := measure(w, start, o.seed, o.seconds, tr)
	if err != nil {
		return err
	}
	defs, values := endToEnd, run.endToEndValues()
	if tr != nil {
		defs = perLayer
		if values, err = perLayerValues(o, run, tr); err != nil {
			return err
		}
	}
	res := result{Correct: run.failed == 0, Attempted: run.attempted, Failed: run.failed}
	if res.Metrics, err = withUnits(defs, values); err != nil {
		return err
	}
	fmt.Printf("%s: seed %d, %d timed rounds, %d ops, %d failed (failed_op_share %.6f)\n",
		o.workload, o.seed, len(run.rounds), run.attempted, run.failed, float64(run.failed)/float64(run.attempted))
	fmt.Printf("  set-ups took %.4g s\n", run.setups)
	for _, d := range defs {
		fmt.Printf("  %-44s %14.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if run.failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed; first: %v", o.workload, run.failed, run.attempted, run.firstErr)
	}
	return nil
}

// perLayerValues completes a traced run: self-time shares from the CPU
// profile, the tracing overhead, the layer probes and the wire ladder; it
// writes the trace, the profile and the values under the trace directory.
func perLayerValues(o options, run *runResult, tr *tracer) (map[string]float64, error) {
	samples, err := parseCPUProfile(run.cpuProfile)
	if err != nil {
		return nil, err
	}
	shares, total := profileShares(samples)
	values := map[string]float64{"share.samples": float64(total)}
	for b, s := range shares {
		values["share."+b] = s
	}
	values["trace_overhead_share"] = run.reduce(true, opWall, undisturbed)/run.reduce(false, opWall, undisturbed) - 1

	probed, err := runProbes(tr)
	if err != nil {
		return nil, err
	}
	ladder, err := runLadder()
	if err != nil {
		return nil, err
	}
	for _, m := range []map[string]float64{probed, ladder} {
		for k, v := range m {
			values[k] = v
		}
	}

	dir := filepath.Join(o.traceDir, o.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(dir, "trace.json")); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), run.cpuProfile, 0o644); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(dir, "layers.json"), values); err != nil {
		return nil, err
	}
	return values, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
