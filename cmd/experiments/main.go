// Command experiments regenerates every table and figure in EXPERIMENTS.md.
//
// Usage:
//
//	experiments                    run everything
//	experiments -run T3,T4         run selected experiments (IDs are
//	                               case-insensitive: -run t11 works)
//	experiments -seed 7            change the deterministic seed
//	experiments -seeds 5           replicate each experiment over 5 seeds
//	                               (seed..seed+4) and aggregate mean±stddev
//	experiments -parallel 4        run replicates 4 at a time (one Sim per
//	                               seed; per-seed output is identical to a
//	                               serial run)
//	experiments -workers 8         size each world's tick worker pool: the
//	                               simulator shards mobility and neighbor
//	                               recomputation across 8 workers (0 =
//	                               GOMAXPROCS, 1 = serial engine; per-seed
//	                               output is identical at any setting)
//	experiments -sweep a=1,2,3     sweep parameter a over the given values
//	                               (see -list for each experiment's
//	                               parameters)
//	experiments -paradigm rev      pin the paradigm of experiments that
//	                               expose one (cs/rev/cod/ma/adaptive),
//	                               like -loss/-churn override theirs
//	experiments -json              machine-readable output
//	experiments -list              list experiments and their motivations
//	experiments -csv out/          also write each table as CSV under out/
//	experiments -cpuprofile p.out  write a CPU profile of the whole run
//	experiments -memprofile m.out  write an allocation profile at exit
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
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"logmob/internal/metrics"
	"logmob/internal/scenario"
	"logmob/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command. It returns the exit code instead of exiting, so a run
// that fails still stops and closes the profiles it started.
func run(args []string, stdout, stderr io.Writer) (exit int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runFlag := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	seed := fs.Int64("seed", 1, "deterministic base seed")
	seeds := fs.Int("seeds", 1, "number of replicate seeds (seed..seed+N-1)")
	parallel := fs.Int("parallel", 1, "replicates to run concurrently")
	workers := fs.Int("workers", 0, "tick worker pool per world (0 = GOMAXPROCS split across -parallel, 1 = serial engine)")
	sweepFlag := fs.String("sweep", "", "parameter sweep, e.g. attendees=100,500,2000")
	lossFlag := fs.Float64("loss", -1, "override the 'loss' parameter of experiments that expose it (e.g. T13 drop probability)")
	churnFlag := fs.Float64("churn", -1, "override the 'churn' parameter of experiments that expose it (e.g. T13 per-tick crash probability)")
	paradigmFlag := fs.String("paradigm", "", "override the 'paradigm' parameter of experiments that expose it: cs, rev, cod, ma or adaptive (e.g. T14 group selection)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of text")
	list := fs.Bool("list", false, "list experiments and exit")
	csvDir := fs.String("csv", "", "also write tables as CSV into this directory")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile at exit to this file")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "experiments: "+format+"\n", args...)
		exit = 1
		return exit
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fail("-cpuprofile: %v", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail("-memprofile: %v", err)
				return
			}
			runtime.GC() // flush garbage so the profile shows live retention
			if err := errors.Join(pprof.WriteHeapProfile(f), f.Close()); err != nil {
				fail("-memprofile: %v", err)
			}
		}()
	}

	if *seeds < 1 {
		return fail("-seeds must be >= 1")
	}
	if *parallel < 1 {
		return fail("-parallel must be >= 1")
	}
	// Safe to default to the parallel engine: per-seed tables are
	// bit-identical at any worker count (the differential tests enforce
	// it). When replicates already run -parallel at a time, split the
	// cores between worlds instead of oversubscribing parallel x workers.
	effWorkers := *workers
	if effWorkers == 0 && *parallel > 1 {
		effWorkers = max(1, runtime.GOMAXPROCS(0) / *parallel)
	}
	scenario.SetDefaultWorkers(effWorkers)

	if *list {
		for _, e := range sim.All() {
			fmt.Fprintf(stdout, "%-4s %s\n     motivation: %s\n", e.ID, e.Title, e.Motivation)
			if len(e.Params) > 0 {
				names := make([]string, 0, len(e.Params))
				for name := range e.Params {
					names = append(names, name)
				}
				sort.Strings(names)
				parts := make([]string, len(names))
				for i, name := range names {
					parts[i] = fmt.Sprintf("%s=%g", name, e.Params[name])
				}
				fmt.Fprintf(stdout, "     parameters: %s\n", strings.Join(parts, " "))
			}
		}
		return 0
	}

	var selected []sim.Experiment
	if *runFlag == "" {
		selected = sim.All()
	} else {
		for _, id := range strings.Split(*runFlag, ",") {
			id = strings.TrimSpace(id)
			e, ok := sim.ByID(id)
			if !ok {
				return fail("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	sweepParam, sweepValues, err := parseSweep(*sweepFlag)
	if err != nil {
		return fail("%v", err)
	}
	if sweepParam != "" {
		for _, e := range selected {
			if e.RunWith == nil {
				return fail("%s has no sweepable parameters", e.ID)
			}
			if _, ok := e.Params[sweepParam]; !ok {
				return fail("%s has no parameter %q (use -list)", e.ID, sweepParam)
			}
		}
	}

	// Adversity and paradigm knobs: -loss/-churn/-paradigm override the
	// matching parameter on every selected experiment that exposes it
	// (others run unchanged).
	overrides := map[string]float64{}
	if *lossFlag >= 0 {
		overrides["loss"] = *lossFlag
	}
	if *churnFlag >= 0 {
		overrides["churn"] = *churnFlag
	}
	if *paradigmFlag != "" {
		code, ok := sim.ParadigmCodes[strings.ToLower(*paradigmFlag)]
		if !ok {
			return fail("unknown -paradigm %q (want cs, rev, cod, ma or adaptive)", *paradigmFlag)
		}
		overrides["paradigm"] = code
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fail("%v", err)
		}
	}

	var report []*jsonExperiment
	for _, e := range selected {
		points := []float64{0}
		if sweepParam != "" {
			points = sweepValues
		}
		// Restrict the adversity overrides to parameters this experiment
		// actually exposes.
		eOverrides := map[string]float64{}
		for name, v := range overrides {
			if _, ok := e.Params[name]; ok {
				eOverrides[name] = v
			}
		}
		for _, v := range points {
			fn := e.Run
			label := ""
			if sweepParam != "" || len(eOverrides) > 0 {
				v := v
				e := e
				fn = func(s int64) *sim.Result {
					params := map[string]float64{}
					for name, ov := range eOverrides {
						params[name] = ov
					}
					if sweepParam != "" {
						params[sweepParam] = v
					}
					return e.RunWith(s, params)
				}
			}
			if sweepParam != "" {
				label = fmt.Sprintf("%s=%g", sweepParam, v)
			}
			if !*jsonOut {
				if label != "" {
					fmt.Fprintf(stdout, "running %s (%s) [%s] ...\n", e.ID, e.Title, label)
				} else {
					fmt.Fprintf(stdout, "running %s (%s) ...\n", e.ID, e.Title)
				}
			}
			multi := scenario.RunSeeds(*seed, *seeds, *parallel, fn)
			if *jsonOut {
				report = append(report, jsonify(e, label, multi))
			} else {
				render(multi, stdout)
			}
			if err := writeCSV(*csvDir, e.ID, label, multi); err != nil {
				return fail("%v", err)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return fail("%v", err)
		}
	}
	return exit
}

// parseSweep parses "param=v1,v2,v3" into its parts.
func parseSweep(s string) (string, []float64, error) {
	if s == "" {
		return "", nil, nil
	}
	name, list, ok := strings.Cut(s, "=")
	if !ok || name == "" || list == "" {
		return "", nil, fmt.Errorf("bad -sweep %q, want param=v1,v2,...", s)
	}
	var values []float64
	for _, part := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return "", nil, fmt.Errorf("bad -sweep value %q: %w", part, err)
		}
		values = append(values, v)
	}
	return strings.TrimSpace(name), values, nil
}

// render writes a replicated run: each seed's full result, then (for
// multi-seed runs) the aggregate tables.
func render(m *scenario.MultiResult, w io.Writer) {
	for _, rep := range m.Replicates {
		if len(m.Replicates) > 1 {
			fmt.Fprintf(w, "--- seed %d ---\n", rep.Seed)
		}
		rep.Result.Render(w)
	}
	if m.Aggregate != nil {
		fmt.Fprintf(w, "--- aggregate over %d seeds ---\n", len(m.Replicates))
		m.Aggregate.Render(w)
	}
}

// writeCSV writes each table (the aggregate's for multi-seed runs) as CSV.
func writeCSV(dir, id, label string, m *scenario.MultiResult) error {
	if dir == "" || len(m.Replicates) == 0 {
		return nil
	}
	res := m.Replicates[0].Result
	if m.Aggregate != nil {
		res = m.Aggregate
	}
	suffix := ""
	if label != "" {
		suffix = "_" + strings.ReplaceAll(strings.ReplaceAll(label, "=", "_"), ",", "_")
	}
	for i, t := range res.Tables {
		name := fmt.Sprintf("%s%s_table%d.csv", strings.ToLower(id), suffix, i+1)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		t.RenderCSV(f)
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// JSON report shapes.
type jsonExperiment struct {
	ID         string          `json:"id"`
	Title      string          `json:"title"`
	Sweep      string          `json:"sweep,omitempty"`
	Seeds      []int64         `json:"seeds"`
	Replicates []*jsonResult   `json:"replicates"`
	Aggregate  *jsonResultBody `json:"aggregate,omitempty"`
}

type jsonResult struct {
	Seed int64 `json:"seed"`
	jsonResultBody
}

type jsonResultBody struct {
	Tables []*jsonTable `json:"tables"`
	Notes  []string     `json:"notes,omitempty"`
}

type jsonTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

func jsonifyTables(tables []*metrics.Table) []*jsonTable {
	out := make([]*jsonTable, len(tables))
	for i, t := range tables {
		jt := &jsonTable{Title: t.Title, Headers: t.Headers()}
		for r := 0; r < t.Rows(); r++ {
			jt.Rows = append(jt.Rows, t.Row(r))
		}
		out[i] = jt
	}
	return out
}

func jsonify(e sim.Experiment, label string, m *scenario.MultiResult) *jsonExperiment {
	je := &jsonExperiment{ID: e.ID, Title: e.Title, Sweep: label}
	for _, rep := range m.Replicates {
		je.Seeds = append(je.Seeds, rep.Seed)
		je.Replicates = append(je.Replicates, &jsonResult{
			Seed: rep.Seed,
			jsonResultBody: jsonResultBody{
				Tables: jsonifyTables(rep.Result.Tables),
				Notes:  rep.Result.Notes,
			},
		})
	}
	if m.Aggregate != nil {
		je.Aggregate = &jsonResultBody{
			Tables: jsonifyTables(m.Aggregate.Tables),
			Notes:  m.Aggregate.Notes,
		}
	}
	return je
}
