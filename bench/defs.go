package main

// workloadDef names one workload and records why it is in the benchmark.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics carry
// none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloads is the benchmark's workload list, in the order the suite runs
// them. BENCHMARK.json repeats it; TestBenchmarkJSONMatchesDefs keeps the
// two in step.
var workloads = []workloadDef{
	{"festival", "T11, 2000 roaming beaconing nodes: dense ticking and broadcast delivery, netsim+discovery bound"},
	{"metropolis", "T15 at 10k residents: sparse ticking, wheels, hierarchical grid, BeaconBatch; the memory-heavy one"},
	{"disaster", "T3: handler-bound (core/agent/lmu/wire/vm), routed unicast; a netsim-only change should not move it"},
	{"blackout", "T13 at 2400 attendees: fault layer, Reliable retries, churn, partition and miss-eviction"},
	{"wire_mix", "loopback TCP, signed 3 kB units, 70/10/10/10 CS/REV/COD/MA, window 8: per-message cost, bypasses netsim"},
	{"wire_bulk", "same hosts, 256 KiB signed units, 50% fetch 25% publish 25% eval, window 4: per-byte cost, writes beside reads"},
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system would see, reported by every
// workload's untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"op_wall_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"cpu_s_per_op", "s", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.02},
	{"alloc_mb_per_op", "MB", lower, 0.02},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// shareBuckets are the packages CPU samples of a traced run are attributed
// to (see profileShares).
var shareBuckets = []string{"netsim", "discovery", "transport", "core", "agent", "vm", "codec", "scenario", "go_runtime"}

// ladderWorkloads are the workloads replayed by the wire ladder.
var ladderWorkloads = []string{"wire_mix", "wire_bulk"}

// perLayer is the traced run's metric list: the self-time shares and trace
// overhead of the workload that ran, then the layer probes and the wire
// ladder, which do not depend on the workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	for _, b := range shareBuckets {
		out = append(out, metricDef{Name: "share." + b, Unit: "ratio", Better: lower})
	}
	out = append(out,
		metricDef{Name: "share.samples", Unit: "count", Better: higher},
		metricDef{Name: "trace_overhead_share", Unit: "ratio", Better: lower},
	)
	for _, w := range ladderWorkloads {
		out = append(out,
			metricDef{Name: w + ".ladder.tcp_us", Unit: "us", Better: lower},
			metricDef{Name: w + ".ladder.mux_us", Unit: "us", Better: lower},
			metricDef{Name: w + ".ladder.core_us", Unit: "us", Better: lower},
			metricDef{Name: w + ".op_wall_p90_s", Unit: "s", Better: lower},
			metricDef{Name: w + ".op_wall_p99_s", Unit: "s", Better: lower},
			metricDef{Name: w + ".net_bytes_per_op", Unit: "B", Better: lower},
		)
	}
	for _, p := range probes {
		for _, m := range p.metrics {
			out = append(out, metricDef{Name: m.name, Unit: m.unit, Better: m.better})
		}
	}
	return out
}
