package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// runChild re-executes this binary for one workload, so set-up time and
// peak RSS belong to that workload alone, and parses the result object off
// the last line of its output.
func runChild(o options, name string, seed int64, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace), "-tracedir", o.traceDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", name, runErr)
		}
		return result{}, fmt.Errorf("%s: no result object on the last line: %w", name, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", name, runErr)
	}
	return res, nil
}

// runSuite runs every workload untraced and prints each end-to-end metric
// by name with its unit and bound; with -trace 1 a second, traced pass adds
// the per-layer set.
func runSuite(o options) error {
	results := map[string]result{}
	var failures []string
	for _, w := range workloads {
		res, err := runChild(o, w.Name, o.seed, 0)
		if err != nil {
			failures = append(failures, err.Error())
		}
		results[w.Name] = res
	}
	if !o.jsonOut {
		printEndToEnd(results)
	}
	out := map[string]any{"end_to_end": results}
	if o.trace == 1 {
		layers, errs := tracedPass(o)
		failures = append(failures, errs...)
		if err := writeJSON(filepath.Join(o.traceDir, "layers.json"), layers); err != nil {
			return err
		}
		out["per_layer"] = layers
		if !o.jsonOut {
			for _, k := range sortedKeys(layers) {
				fmt.Printf("%-52s %14.6g\n", k, layers[k])
			}
		}
	}
	if o.jsonOut {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d workload(s) failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

func printEndToEnd(results map[string]result) {
	fmt.Printf("%-16s %-7s %-8s %-6s", "metric", "unit", "better", "bound")
	for _, w := range workloads {
		fmt.Printf(" %12s", w.Name)
	}
	fmt.Println()
	for _, d := range endToEnd {
		fmt.Printf("%-16s %-7s %-8s %-6s", d.Name, d.Unit, d.Better, fmt.Sprintf("%.0f%%", d.Bound*100))
		for _, w := range workloads {
			fmt.Printf(" %12.6g", results[w.Name].Metrics[d.Name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-16s %-7s %-8s %-6s", "failed_op_share", "ratio", lower, "0")
	for _, w := range workloads {
		r := results[w.Name]
		fmt.Printf(" %12.6g", float64(r.Failed)/float64(max(r.Attempted, 1)))
	}
	fmt.Println()
}

// tracedPass runs every workload traced. The shares and trace overhead are
// each workload's own and are keyed <workload>.<metric>; the layer probes
// and the ladder do not depend on the workload, every traced run measures
// them, and the suite reports each one's median over those runs.
func tracedPass(o options) (map[string]float64, []string) {
	layers := map[string]float64{}
	perRun := map[string][]float64{}
	var failures []string
	for _, w := range workloads {
		res, err := runChild(o, w.Name, o.seed, 1)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		for name, m := range res.Metrics {
			if strings.HasPrefix(name, "share.") || name == "trace_overhead_share" {
				layers[w.Name+"."+name] = m.Value
			} else {
				perRun[name] = append(perRun[name], m.Value)
			}
		}
	}
	for name, vals := range perRun {
		layers[name] = median(vals)
	}
	return layers, failures
}

// runAA runs the untraced suite as two interleaved sets (A B B A ...) of
// the same binary, a new seed for every run of a set, and applies the two
// checks the benchmark must pass before its bounds mean anything: within
// each set, the interquartile spread of every end-to-end metric but setup_s
// stays inside the metric's bound, and the two sets' medians differ by less
// than the bound.
func runAA(o options) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	counts := [2]int{}
	for i := 0; i < 2*o.aa; i++ {
		set := []int{0, 1, 1, 0}[i%4]
		seed := o.seed + int64(counts[set])
		counts[set]++
		for _, w := range workloads {
			res, err := runChild(o, w.Name, seed, 0)
			if err != nil {
				return err
			}
			for name, m := range res.Metrics {
				k := key{w.Name, name}
				sets[set][k] = append(sets[set][k], m.Value)
			}
		}
		fmt.Fprintf(os.Stderr, "aa: pass %d of %d done (set %c, seed %d)\n", i+1, 2*o.aa, 'A'+set, seed)
	}
	fmt.Printf("%-11s %-16s %12s %8s %12s %8s %8s %6s\n", "workload", "metric", "A median", "spread", "B median", "spread", "gap", "bound")
	outside := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][key{w.Name, d.Name}], sets[1][key{w.Name, d.Name}]
			gap := median(b)/median(a) - 1 // positive: B reads higher
			verdict := ""
			if math.Abs(gap) > d.Bound || (d.Name != "setup_s" && max(spread(a), spread(b)) > d.Bound) {
				verdict = "  OUTSIDE"
				outside++
			}
			fmt.Printf("%-11s %-16s %12.6g %7.2f%% %12.6g %7.2f%% %+7.2f%% %5.0f%%%s\n", w.Name, d.Name,
				median(a), spread(a)*100, median(b), spread(b)*100, gap*100, d.Bound*100, verdict)
		}
	}
	if outside > 0 {
		return fmt.Errorf("aa: %d metric(s) of two sets of the same code are outside their bound", outside)
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
