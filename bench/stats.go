package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle value of v (mean of the two middle values for
// an even count); 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (the "inclusive" definition: q=0 is the minimum, q=1 the
// maximum). v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is the
// definition the acceptance rule for this benchmark is written against.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		m := median(v)
		return m, m
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of the 3 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4) // may extrapolate after clamping, as Python does
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of v as a share of its median: the
// run-to-run noise figure every bound in BENCHMARK.json is judged against.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// percentileLadder lists the percentiles a latency report may quote, lowest
// first, in tenths of a percent.
var percentileLadder = []int{500, 900, 990, 999}

// highestSupportedPercentile returns the highest rung of percentileLadder
// that still has at least ten samples beyond it among n samples, and false
// when not even the median has.
func highestSupportedPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		if n*(1000-p) >= 10*1000 {
			best, ok = float64(p)/10, true
		}
	}
	return best, ok
}

// undisturbed estimates what a time reads when nothing else contends for
// the machine: the minimum of v. See README.md, "Why the minimum".
func undisturbed(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Min(v)
}
