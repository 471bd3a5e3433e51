package scenario

import (
	"fmt"
	"sync"
	"sync/atomic"

	"logmob/internal/metrics"
	"logmob/internal/netsim"
)

// defaultWorkers is the tick worker pool size worlds start with when their
// Spec does not set Workers explicitly. 1 (serial) by default; the
// experiments CLI raises it. Atomic so a harness can flip it around runs
// that themselves execute replicates in parallel.
var defaultWorkers atomic.Int32

func init() { defaultWorkers.Store(1) }

// SetDefaultWorkers sets the tick worker pool size newly built worlds
// inherit: 1 keeps the serial engine, values above 1 enable netsim's
// two-phase parallel tick, and 0 or negative selects GOMAXPROCS. Per-seed
// results are bit-identical at any setting; only wall-clock changes.
func SetDefaultWorkers(w int) {
	if w <= 0 {
		w = netsim.AutoWorkers()
	}
	defaultWorkers.Store(int32(w))
}

// DefaultWorkers returns the worker count newly built worlds inherit.
func DefaultWorkers() int { return int(defaultWorkers.Load()) }

// Replicate is one seed's result.
type Replicate struct {
	Seed   int64
	Result *Result
}

// MultiResult is a replicated run: per-seed results plus the aggregate.
type MultiResult struct {
	// Replicates are the per-seed results, in seed order.
	Replicates []Replicate
	// Aggregate holds the replicate tables combined cell-wise into
	// mean±stddev summaries. It is nil for a single replicate.
	Aggregate *Result
}

// RunSeeds runs fn once for each of the n consecutive seeds starting at
// base, parallel at a time (<= 1 runs serially), and aggregates the
// replicate tables. Each call of fn must build its own world (one Sim per
// seed), so replicates are independent and a seed's result is identical
// whether it runs serially or in parallel.
func RunSeeds(base int64, n, parallel int, fn func(seed int64) *Result) *MultiResult {
	reps := make([]Replicate, max(n, 0))
	run := func(i int) {
		seed := base + int64(i)
		reps[i] = Replicate{Seed: seed, Result: fn(seed)}
	}
	if parallel > 1 && len(reps) > 1 {
		sem := make(chan struct{}, parallel)
		var wg sync.WaitGroup
		for i := range reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				run(i)
			}()
		}
		wg.Wait()
	} else {
		for i := range reps {
			run(i)
		}
	}
	out := &MultiResult{Replicates: reps}
	if len(reps) > 1 {
		out.Aggregate = aggregate(reps)
	}
	return out
}

// aggregate combines the replicates' tables position-wise. Tables must have
// the same shape across seeds (deterministic experiments do); a shape
// mismatch is reported in the aggregate's notes instead of a table.
func aggregate(reps []Replicate) *Result {
	first := reps[0].Result
	agg := &Result{
		ID:    first.ID,
		Title: fmt.Sprintf("%s (mean±stddev over %d seeds)", first.Title, len(reps)),
		Notes: first.Notes,
	}
	for ti := range first.Tables {
		tables := make([]*metrics.Table, 0, len(reps))
		for _, rep := range reps {
			if ti < len(rep.Result.Tables) {
				tables = append(tables, rep.Result.Tables[ti])
			}
		}
		combined, err := metrics.AggregateTables(tables)
		if err != nil {
			agg.Notes = append(agg.Notes,
				fmt.Sprintf("table %d not aggregated: %v", ti+1, err))
			continue
		}
		agg.Tables = append(agg.Tables, combined)
	}
	return agg
}
