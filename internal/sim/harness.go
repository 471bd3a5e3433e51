// Package sim is logmob's experiment harness: it regenerates every table
// and figure in EXPERIMENTS.md from the simulator, the kernel and the
// scenario library.
//
// The source paper is a two-page position paper with no quantitative
// evaluation, so each experiment here is derived from (and annotated with)
// the paper passage whose argument it checks. Experiments are deterministic
// given their seed.
//
// Worlds are built with the declarative scenario package: an experiment
// either compiles a scenario.Spec (see T11) or assembles a scenario.World
// imperatively where its measurement needs bespoke wiring.
package sim

import (
	"maps"
	"strings"

	"logmob/internal/scenario"
)

// Result is the output of one experiment run.
type Result = scenario.Result

// Experiment is one named, reproducible experiment.
type Experiment struct {
	ID         string
	Title      string
	Motivation string // the paper passage this experiment checks
	Run        func(seed int64) *Result
	// Params lists the experiment's sweepable parameters and their
	// defaults; nil when the experiment exposes none.
	Params map[string]float64
	// RunWith runs with named parameter overrides (missing keys take the
	// defaults); nil when the experiment exposes no parameters.
	RunWith func(seed int64, params map[string]float64) *Result
}

// FromSpec builds an Experiment whose runs compile and execute the scenario
// Spec that build returns for the (default-filled) parameter set.
func FromSpec(id, title, motivation string, defaults map[string]float64,
	build func(params map[string]float64) *scenario.Spec, notes ...string) Experiment {
	runWith := func(seed int64, params map[string]float64) *Result {
		spec := build(withDefaults(defaults, params))
		_, table := spec.Run(seed)
		res := &Result{ID: id, Title: spec.Name}
		if table != nil {
			res.Tables = append(res.Tables, table)
		}
		res.Notes = append(res.Notes, notes...)
		return res
	}
	return Experiment{
		ID: id, Title: title, Motivation: motivation,
		Run:     func(seed int64) *Result { return runWith(seed, nil) },
		Params:  defaults,
		RunWith: runWith,
	}
}

// withDefaults returns params laid over a copy of defaults.
func withDefaults(defaults, params map[string]float64) map[string]float64 {
	merged := make(map[string]float64, len(defaults)+len(params))
	maps.Copy(merged, defaults)
	maps.Copy(merged, params)
	return merged
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		T1(), T2(), T3(), T4(), T5(), T6(), T7(), T8(), T9(), T10(), T11(), T12(), T13(), T14(), T15(), T16(), A1(), A2(), A3(),
	}
}

// ByID looks an experiment up by its ID, case-insensitively ("t11" finds
// T11); printed IDs stay canonical.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
