package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark workload. A run sets it up setUps times
// (tearing down in between) and then executes timed rounds on the last
// fixture.
type workload interface {
	// setUps is how many times a run sets the workload up; setup_s is the
	// fastest, so the more a set-up is a matter of milliseconds, the more of
	// them it takes to find one the neighbours left alone.
	setUps() int
	// setUp builds the fixture and runs the untimed warm-up.
	setUp() error
	tearDown()
	// round runs one timed round: a fixed batch of ops whose order is drawn
	// from rng. Only what runs inside m.timed counts towards the metrics.
	round(rng *rand.Rand, m *meter, tr *tracer) roundOutcome
}

// roundOutcome is what a workload reports for one round.
type roundOutcome struct {
	ops, failed int
	// group names the work the round did: rounds of one group run identical
	// inputs and are comparable, rounds of different groups are not.
	group int64
	// opWall is the round's median op latency in seconds; a simulator round
	// is a single op and reports its wall time.
	opWall   float64
	netBytes int64
	err      error // first failure, for the log
}

// meter accumulates the cost of the timed sections of one round.
type meter struct {
	wall, cpu      float64
	mallocs, bytes uint64
	peakRSSMB      float64
}

func (m *meter) timed(fn func()) {
	var before, after runtime.MemStats
	resetPeakRSS()
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	fn()
	m.wall += time.Since(t0).Seconds()
	m.cpu += cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	m.mallocs += after.Mallocs - before.Mallocs
	m.bytes += after.TotalAlloc - before.TotalAlloc
	m.peakRSSMB = max(m.peakRSSMB, peakRSSMB())
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set, so the next reading is one round's peak. Where the
// kernel refuses, the mark stays the process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// minRounds is the least number of timed rounds, whatever -seconds says:
// every simulator workload visits each of its pinned scenario seeds once.
const minRounds = 2

// roundSample is one timed round, reduced to per-op figures.
type roundSample struct {
	group        int64
	traced       bool
	opWall       float64 // median op latency, seconds
	wallPerOp    float64 // round wall time / ops: the inverse of throughput
	cpuPerOp     float64
	allocsPerOp  float64
	allocMBPerOp float64
	peakRSSMB    float64
}

// runResult is everything one workload run measured.
type runResult struct {
	attempted, failed int
	setups            []float64
	rounds            []roundSample
	firstErr          error
	cpuProfile        []byte // traced runs only
}

// setUpAll sets w up setUps times, leaving the last fixture standing,
// and returns each set-up's duration. The first is measured from start, the
// process's first instruction in main, so it includes everything a cold
// process pays before it can run an op.
func setUpAll(w workload, start time.Time) ([]float64, error) {
	var times []float64
	for i := 0; i < w.setUps(); i++ {
		if i > 0 {
			w.tearDown()
			start = time.Now()
		}
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return times, nil
}

// measure runs w for about seconds of timed rounds. An untraced run times
// every round plainly. A traced run spends the first and last quarter
// untraced and the middle half under one CPU profile with spans on, so the
// two halves see the same drift and their ratio is the tracing overhead.
func measure(w workload, start time.Time, seed int64, seconds float64, tr *tracer) (*runResult, error) {
	res := &runResult{}
	var err error
	if res.setups, err = setUpAll(w, start); err != nil {
		return nil, err
	}
	defer w.tearDown()
	rng := rand.New(rand.NewSource(seed))

	block := func(budget float64, least int, t *tracer) {
		spent := 0.0
		for n := 0; n < least || spent < budget; n++ {
			var m meter
			out := w.round(rng, &m, t)
			res.attempted += out.ops
			res.failed += out.failed
			if out.err != nil && res.firstErr == nil {
				res.firstErr = out.err
			}
			ops := float64(out.ops)
			res.rounds = append(res.rounds, roundSample{
				group:        out.group,
				traced:       t != nil,
				opWall:       out.opWall,
				wallPerOp:    m.wall / ops,
				cpuPerOp:     m.cpu / ops,
				allocsPerOp:  float64(m.mallocs) / ops,
				allocMBPerOp: float64(m.bytes) / 1e6 / ops,
				peakRSSMB:    m.peakRSSMB,
			})
			spent += m.wall
		}
	}
	if tr == nil {
		block(seconds, minRounds, nil)
		return res, nil
	}
	block(seconds/4, minRounds, nil)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	block(seconds/2, minRounds, tr)
	pprof.StopCPUProfile()
	res.cpuProfile = prof.Bytes()
	block(seconds/4, minRounds, nil)
	return res, nil
}

// Fields of a round the metrics are built from.
func opWall(s roundSample) float64       { return s.opWall }
func wallPerOp(s roundSample) float64    { return s.wallPerOp }
func cpuPerOp(s roundSample) float64     { return s.cpuPerOp }
func allocsPerOp(s roundSample) float64  { return s.allocsPerOp }
func allocMBPerOp(s roundSample) float64 { return s.allocMBPerOp }
func peakRSS(s roundSample) float64      { return s.peakRSSMB }

// reduce applies stat to one field of the rounds whose traced flag matches,
// group by group, and returns the mean over the groups: each group's rounds
// did the same work, and every group weighs the same however many of its
// rounds fitted into the run.
func (r *runResult) reduce(traced bool, field func(roundSample) float64, stat func([]float64) float64) float64 {
	byGroup := map[int64][]float64{}
	for _, s := range r.rounds {
		if s.traced == traced {
			byGroup[s.group] = append(byGroup[s.group], field(s))
		}
	}
	if len(byGroup) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range byGroup {
		sum += stat(v)
	}
	return sum / float64(len(byGroup))
}

// endToEndValues reduces an untraced run to the end-to-end metrics. Times
// are the undisturbed set-up and each group's undisturbed round (see
// undisturbed); counts do not depend on the neighbours and are medians.
func (r *runResult) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":         undisturbed(r.setups),
		"op_wall_s":       r.reduce(false, opWall, undisturbed),
		"ops_per_s":       1 / r.reduce(false, wallPerOp, undisturbed),
		"cpu_s_per_op":    r.reduce(false, cpuPerOp, undisturbed),
		"allocs_per_op":   r.reduce(false, allocsPerOp, median),
		"alloc_mb_per_op": r.reduce(false, allocMBPerOp, median),
		"peak_rss_mb":     r.reduce(false, peakRSS, median),
	}
}
