package main

import (
	"math/rand"
)

// ladderSeconds is how long each rung of the wire ladder is timed, after
// one untimed round.
const ladderSeconds = 0.6

// timeRung runs round once untimed, then for ladderSeconds and until enough
// holds of the ops timed so far.
func timeRung(round func(*meter) roundOutcome, enough func(ops int) bool) ([]roundOutcome, error) {
	if r := round(&meter{}); r.err != nil {
		return nil, r.err
	}
	var outs []roundOutcome
	var m meter
	for ops := 0; m.wall < ladderSeconds || !enough(ops); {
		r := round(&m)
		if r.err != nil {
			return nil, r.err
		}
		outs = append(outs, r)
		ops += r.ops
	}
	return outs, nil
}

func anyCount(int) bool { return true }

// p99Supported reports whether ops latencies leave ten samples beyond their
// 99th percentile.
func p99Supported(ops int) bool {
	top, _ := highestSupportedPercentile(ops)
	return top >= 99
}

func pluck(outs []roundOutcome, field func(roundOutcome) float64) []float64 {
	v := make([]float64, len(outs))
	for i, r := range outs {
		v[i] = field(r)
	}
	return v
}

// runLadder replays each wire workload's op sequence at three depths — raw
// TCPEndpoint echo, the same through Mux channels, and the full core path —
// and reports the undisturbed median op latency of each, so the difference
// between two rungs is one layer's self time. The core rung also yields the
// tail latencies, over all its timed ops, and the wire bytes per op that
// only the wire workloads have.
func runLadder() (map[string]float64, error) {
	opWall := func(r roundOutcome) float64 { return r.opWall }
	out := map[string]float64{}
	for _, name := range ladderWorkloads {
		spec := wireSpecs[name]
		rng := rand.New(rand.NewSource(1))

		w := &wireWork{spec: spec}
		if err := w.start(); err != nil {
			return nil, err
		}
		var lat []float64 // every timed op's latency, for the tail
		outs, err := timeRung(func(m *meter) roundOutcome {
			r := w.round(rng, m, nil)
			lat = append(lat, w.lat...)
			return r
		}, p99Supported)
		unitSize, agentSize := w.codec.Size(), w.agentTmpl.Size()
		w.tearDown()
		if err != nil {
			return nil, err
		}
		out[name+".ladder.core_us"] = undisturbed(pluck(outs, opWall)) * 1e6
		lat = lat[len(w.lat):] // drop the untimed round
		out[name+".op_wall_p90_s"] = quantile(lat, 0.90)
		out[name+".op_wall_p99_s"] = quantile(lat, 0.99)
		out[name+".net_bytes_per_op"] = median(pluck(outs, func(r roundOutcome) float64 { return float64(r.netBytes) / float64(r.ops) }))

		for _, depth := range []struct {
			key string
			mux bool
		}{{".ladder.tcp_us", false}, {".ladder.mux_us", true}} {
			e := &echoWork{spec: spec, mux: depth.mux}
			if err := e.setUp(unitSize, agentSize); err != nil {
				return nil, err
			}
			outs, err := timeRung(func(m *meter) roundOutcome { return e.round(rng, m) }, anyCount)
			e.tearDown()
			if err != nil {
				return nil, err
			}
			out[name+depth.key] = undisturbed(pluck(outs, opWall)) * 1e6
		}
	}
	return out, nil
}
