package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestMedianAndQuantile(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{30, 10, 20}
	median(in)
	if !reflect.DeepEqual(in, []float64{30, 10, 20}) {
		t.Errorf("median reordered its argument: %v", in)
	}
	// 1..11: the q-quantile sits at 1 + 10q.
	for _, q := range []float64{0, 0.25, 0.9, 1} {
		if got, want := quantile(seq(11), q), 1+10*q; !near(got, want) {
			t.Errorf("quantile(1..11, %v) = %v, want %v", q, got, want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(5), 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25}, // extrapolates, as Python does
		{[]float64{10, 12, 11, 30, 13, 12, 11, 10, 14, 12}, 10.75, 13.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread(seq(10)); !near(got, 1) { // (8.25-2.75)/5.5
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{15, 0, false}, // 7.5 samples beyond the median
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
		{120000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := highestSupportedPercentile(c.n)
		if ok != c.ok || !near(got, c.want) {
			t.Errorf("highestSupportedPercentile(%d) = %v, %v, want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from defs.go")

// TestBenchmarkJSONMatchesDefs is the golden of every workload and metric
// name: BENCHMARK.json is what later issues cite, the tables in defs.go are
// what the program reports, and a rename in either shows up here as well as
// in BENCHMARK.json's diff. go test -run BenchmarkJSON -update rewrites it.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	want, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, defaultSeconds, workloads, endToEnd, perLayer}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from defs.go; it should read:\n%s", want)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[string]string{
		"logmob/internal/netsim.(*Network).deliver":       "netsim",
		"logmob/internal/discovery.(*adTable).put":        "discovery",
		"logmob/internal/wire.(*Reader).Uint":             "codec",
		"logmob/internal/lmu.Unpack":                      "codec",
		"logmob/internal/security.Verify":                 "codec",
		"logmob/internal/registry.(*Registry).Put":        "core",
		"logmob/internal/sim.runDisaster":                 "scenario",
		"logmob/internal/scenario.(*Spec).Compile.func1":  "scenario",
		"main.(*wireWork).do":                             "scenario",
		"runtime.mallocgc":                                "",
		"crypto/sha256.block":                             "",
		"logmob/internal/transport.(*TCPEndpoint).Send":   "transport",
		"logmob/internal/vm.(*Machine).Run":               "vm",
		"logmob/internal/agent.(*activation).drive":       "agent",
		"logmob/internal/core.(*Host).handle":             "core",
		"logmob/internal/policy.Decide":                   "core",
		"logmob/internal/metrics.(*Table).Render":         "scenario",
		"logmob/internal/netsim.(*Network).Send.func1.1":  "netsim",
		"internal/runtime/syscall.Syscall6":               "",
		"logmob/internal/transport.(*Mux).dispatch":       "transport",
		"logmob/internal/discovery.(*BeaconBatch).fire":   "discovery",
		"logmob/internal/ctxsvc.(*Service).Set":           "core",
		"logmob/internal/app.BuildCodec":                  "scenario",
		"logmob/internal/baseline.(*Messenger).attempt":   "scenario",
		"logmob/internal/adapt.(*Engine).Do":              "core",
		"logmob/internal/cluster.(*Node).probe":           "core",
		"logmob/internal/update.(*Updater).check":         "core",
		"logmob/internal/netsim.(*wheelQueue).pop":        "netsim",
		"logmob/internal/security.(*TrustStore).Key":      "codec",
		"logmob/internal/wire.WriteFrame":                 "codec",
		"logmob/internal/lmu.(*Unit).PackTo":              "codec",
		"logmob/internal/scenario.GreedyGeoCaps.func1":    "scenario",
		"logmob/internal/agent.sharedAgentTable.func1.10": "agent",
	}
	for fn, want := range cases {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink uint64

//go:noinline
func spinForProfile(d time.Duration) {
	x := uint64(88172645463325252)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	spinSink = x
}

// TestParseCPUProfile feeds the reader a real runtime/pprof profile and
// looks for the function that burned the CPU.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spinForProfile(150 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spinning int64
	for _, s := range samples {
		total += s.count
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, "spinForProfile") {
				spinning += s.count
				break
			}
		}
	}
	if total == 0 {
		t.Skip("the profiler delivered no samples in 150ms")
	}
	if spinning*2 < total {
		t.Errorf("%d of %d samples name spinForProfile, want most of them", spinning, total)
	}
	shares, n := profileShares(samples)
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if n != total || !near(sum, 1) {
		t.Errorf("profileShares: %d samples summing to %v, want %d and 1", n, sum, total)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("parseCPUProfile accepted garbage")
	}
}

func TestUndisturbedIsTheMinimum(t *testing.T) {
	if got := undisturbed([]float64{3, 1.5, 9, 2}); !near(got, 1.5) {
		t.Errorf("undisturbed = %v, want 1.5", got)
	}
}

// TestReduceWeighsGroupsEqually: two groups of different cost, the dearer
// one with more rounds; each group is reduced alone and they count the same.
func TestReduceWeighsGroupsEqually(t *testing.T) {
	r := &runResult{rounds: []roundSample{
		{group: 1, opWall: 1.0}, {group: 1, opWall: 1.2},
		{group: 2, opWall: 3.0}, {group: 2, opWall: 3.4}, {group: 2, opWall: 5.0},
		{group: 2, opWall: 100, traced: true},
	}}
	if got := r.reduce(false, opWall, undisturbed); !near(got, 2.0) { // (1.0 + 3.0) / 2
		t.Errorf("reduce(min) = %v, want 2", got)
	}
	if got := r.reduce(false, opWall, median); !near(got, 2.25) { // (1.1 + 3.4) / 2
		t.Errorf("reduce(median) = %v, want 2.25", got)
	}
	if got := r.reduce(true, opWall, median); !near(got, 100) {
		t.Errorf("reduce over the traced rounds = %v, want 100", got)
	}
}
