// Package adapt executes application tasks through whichever mobile-code
// paradigm the host's decider selects — the paper's "different mobile code
// paradigms could be plugged-in dynamically and used when needed after
// assessment of the environment and application", turned into an API.
//
// A TaskSpec describes one interaction both declaratively (the cost-model
// Task: sizes, rounds, compute) and operationally (the service name, the
// code unit, the arguments). Engine.Run asks the host's decider which of the
// paradigms the spec can execute fits the current context, records the
// decision in the engine's trajectory, and drives the corresponding kernel
// API; Engine.RunAs drives it under a paradigm the caller pinned:
//
//	CS  -> Host.Call           (one call per interaction round)
//	REV -> Host.Eval           (ship the unit, run remotely once)
//	COD -> Host.Ensure + RunComponent (fetch once, run locally per round)
//	MA  -> agent spawn hook    (optional; applications supply the agent)
package adapt

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"logmob/internal/core"
	"logmob/internal/lmu"
	"logmob/internal/policy"
)

// Errors returned by Run.
var (
	// ErrNoOperation reports a spec with no operation for the paradigm it
	// was asked to run under (e.g. pinned to CS but no Service was given),
	// or with no operation at all.
	ErrNoOperation = errors.New("adapt: task spec cannot execute chosen paradigm")
)

// TaskSpec describes one task declaratively and operationally.
type TaskSpec struct {
	// Model feeds the decider's cost model.
	Model policy.Task
	// Remote is the host the task interacts with.
	Remote string
	// Service is the CS service name; each interaction round calls it once
	// with Args encoded as one frame per value.
	Service string
	// Unit is the code unit used by REV (shipped) and COD (fetched; it must
	// be published by Remote under its manifest name).
	Unit *lmu.Unit
	// Entry is the unit entry point. COD runs it once per interaction
	// round; REV evaluates it once for the whole task.
	Entry string
	// EvalEntry, if non-empty, is the entry REV uses instead of Entry —
	// for units whose per-round entry must be wrapped in a run-the-whole-
	// task entry so a single remote evaluation performs all rounds' work.
	EvalEntry string
	// Args are the per-round arguments.
	Args []int64
	// SpawnAgent, if set, handles the MA paradigm: it should launch the
	// application's agent and eventually invoke the callback itself.
	SpawnAgent func(done func(stack []int64, err error)) error
}

// executable appends the paradigms the spec has operations for to out: the
// decision space, so a decider can never pick what RunAs would refuse.
func (s *TaskSpec) executable(out []policy.Paradigm) []policy.Paradigm {
	if s.Service != "" {
		out = append(out, policy.CS)
	}
	if s.Unit != nil {
		out = append(out, policy.REV, policy.COD)
	}
	if s.SpawnAgent != nil {
		out = append(out, policy.MA)
	}
	return out
}

// Outcome reports how a task was executed.
type Outcome struct {
	Paradigm policy.Paradigm
	// Stack is the final VM stack (REV/COD/MA) — for CS, one decoded int64
	// per reply frame when frames are 8 bytes, else nil.
	Stack []int64
	// Rounds is how many interaction rounds ran.
	Rounds int64
}

// Decision is one entry in an Engine's trajectory.
type Decision struct {
	// At is the virtual time of the decision.
	At time.Duration
	// Paradigm is what ran.
	Paradigm policy.Paradigm
	// Regret is the decider's score for the choice minus its score for the
	// best executable alternative at decision time: the model cost of
	// honouring hysteresis (0 when the best won).
	Regret float64
}

// historyCap bounds an engine's retained trajectory (oldest dropped). A
// stream decides once per task, seconds apart, and scenario.Adaptive's probe
// rows split the trajectory into run halves, so the cap is far above any
// realistic run: it exists so that a runaway caller cannot grow an engine
// without bound, not to trim a real one.
const historyCap = 1 << 20

// Engine executes TaskSpecs on one host — under its decider (Run), which it
// consults before every interaction, or under a pinned paradigm (RunAs) —
// and keeps the decision trajectory: which paradigm ran when, how often the
// selection switched, and the model regret of each choice, for
// scenario.Adaptive to report. Like the kernel it serves, it is driven from the event
// loop and is not goroutine-safe.
type Engine struct {
	host    *core.Host
	decider policy.Decider

	// allowed backs the executable set handed to the decider, so a decision
	// allocates nothing.
	allowed   [4]policy.Paradigm
	history   []Decision
	switches  int64
	decisions int64
	regret    float64
}

// NewEngine builds an adaptation engine on h. A nil decider defaults to a
// battery-aware AdaptiveDecider over the default objective with an energy
// term.
func NewEngine(h *core.Host, d policy.Decider) *Engine {
	if d == nil {
		obj := policy.DefaultObjective()
		obj.EnergyWeight = 0.05
		d = &policy.AdaptiveDecider{Objective: obj, BatteryAware: true}
	}
	return &Engine{host: h, decider: d}
}

// Decisions returns how many tasks the engine has decided.
func (e *Engine) Decisions() int64 { return e.decisions }

// Switches returns how many decisions changed paradigm from the previous
// one.
func (e *Engine) Switches() int64 { return e.switches }

// Regret returns the cumulative model regret: the sum over decisions of
// score(chosen) - score(best executable). 0 means every decision took the
// model's best choice.
func (e *Engine) Regret() float64 { return e.regret }

// History returns a copy of the retained decision trajectory, oldest
// first.
func (e *Engine) History() []Decision {
	out := make([]Decision, len(e.history))
	copy(out, e.history)
	return out
}

// decide runs the decision over what the spec can execute and accounts the
// trajectory. A hostile task model errors here instead of flowing into the
// decider's arithmetic.
func (e *Engine) decide(spec *TaskSpec) (policy.Paradigm, error) {
	allowed := spec.executable(e.allowed[:0])
	if len(allowed) == 0 {
		return 0, fmt.Errorf("%w: no operations provided", ErrNoOperation)
	}
	if err := spec.Model.Validate(); err != nil {
		return 0, err
	}
	chosen, regret := e.decider.Choose(spec.Model, allowed, e.host.Context())
	e.decisions++
	if n := len(e.history); n > 0 && chosen != e.history[n-1].Paradigm {
		e.switches++
	}
	e.regret += regret
	e.history = append(e.history, Decision{At: e.host.Scheduler().Now(), Paradigm: chosen, Regret: regret})
	if len(e.history) > historyCap {
		e.history = e.history[1:]
	}
	return chosen, nil
}

// Run re-selects the paradigm for this interaction and executes the task
// under it. cb fires exactly once.
func (e *Engine) Run(spec *TaskSpec, cb func(Outcome, error)) {
	chosen, err := e.decide(spec)
	if err != nil {
		cb(Outcome{}, err)
		return
	}
	e.RunAs(chosen, spec, cb)
}

// RunAs executes the task under an explicitly chosen paradigm, bypassing
// the decider and the trajectory — Run's act step, and the way to pin a
// fixed paradigm for comparison runs. A paradigm the spec has no operation
// for (e.g. RunAs(policy.MA, ...) without SpawnAgent) reports ErrNoOperation.
func (e *Engine) RunAs(chosen policy.Paradigm, spec *TaskSpec, cb func(Outcome, error)) {
	if !slices.Contains(spec.executable(e.allowed[:0]), chosen) {
		cb(Outcome{Paradigm: chosen}, fmt.Errorf("%w: %v", ErrNoOperation, chosen))
		return
	}
	switch chosen {
	case policy.CS:
		e.runCS(spec, cb)
	case policy.REV:
		e.runREV(spec, cb)
	case policy.COD:
		e.runCOD(spec, cb)
	case policy.MA:
		if err := spec.SpawnAgent(func(stack []int64, err error) {
			if err != nil {
				cb(Outcome{Paradigm: policy.MA}, err)
				return
			}
			cb(Outcome{Paradigm: policy.MA, Stack: stack, Rounds: 1}, nil)
		}); err != nil {
			cb(Outcome{Paradigm: policy.MA}, err)
		}
	}
}

// runCS performs Model.Interactions sequential service calls.
func (e *Engine) runCS(spec *TaskSpec, cb func(Outcome, error)) {
	rounds := spec.Model.Interactions
	if rounds <= 0 {
		rounds = 1
	}
	args := EncodeInts(spec.Args)
	var last []int64
	var round func(i int64)
	round = func(i int64) {
		if i >= rounds {
			cb(Outcome{Paradigm: policy.CS, Stack: last, Rounds: rounds}, nil)
			return
		}
		e.host.Call(spec.Remote, spec.Service, args, func(results [][]byte, err error) {
			if err != nil {
				cb(Outcome{Paradigm: policy.CS, Rounds: i}, err)
				return
			}
			last = decodeInts(results)
			round(i + 1)
		})
	}
	round(0)
}

func (e *Engine) runREV(spec *TaskSpec, cb func(Outcome, error)) {
	entry := spec.EvalEntry
	if entry == "" {
		entry = spec.Entry
	}
	e.host.Eval(spec.Remote, spec.Unit, entry, spec.Args, func(stack []int64, err error) {
		if err != nil {
			cb(Outcome{Paradigm: policy.REV}, err)
			return
		}
		cb(Outcome{Paradigm: policy.REV, Stack: stack, Rounds: 1}, nil)
	})
}

// runCOD ensures the component locally, then runs every round on-device.
// When the host models a CPU speed (Config.ComputeRate), the completion
// callback is delayed by the executed instruction count over that rate, so
// running fetched code on a weak device costs the virtual time it should —
// symmetrical with the kernel's delayed Eval replies.
func (e *Engine) runCOD(spec *TaskSpec, cb func(Outcome, error)) {
	name := spec.Unit.Manifest.Name
	e.host.Ensure(spec.Remote, name, spec.Unit.Manifest.Version, func(_ *lmu.Unit, _ bool, err error) {
		if err != nil {
			cb(Outcome{Paradigm: policy.COD}, err)
			return
		}
		rounds := spec.Model.Interactions
		if rounds <= 0 {
			rounds = 1
		}
		var last []int64
		var steps int64
		for i := int64(0); i < rounds; i++ {
			stack, n, err := e.host.RunComponentSteps(name, spec.Entry, spec.Args...)
			steps += n
			if err != nil {
				cb(Outcome{Paradigm: policy.COD, Rounds: i}, err)
				return
			}
			last = stack
		}
		done := func() { cb(Outcome{Paradigm: policy.COD, Stack: last, Rounds: rounds}, nil) }
		if rate := e.host.ComputeRate(); rate > 0 && steps > 0 {
			delay := time.Duration(float64(steps) / rate * float64(time.Second))
			e.host.Scheduler().NewTimer(done).Reset(delay)
			return
		}
		done()
	})
}

// EncodeInts renders int64 values as 8-byte big-endian frames: the CS
// argument and reply encoding, exported for services meant to interoperate
// with adaptive clients.
func EncodeInts(values []int64) [][]byte {
	out := make([][]byte, len(values))
	for i, a := range values {
		b := make([]byte, 8)
		for j := 7; j >= 0; j-- {
			b[j] = byte(a)
			a >>= 8
		}
		out[i] = b
	}
	return out
}

// decodeInts parses 8-byte frames back to int64s; other frames are skipped.
func decodeInts(frames [][]byte) []int64 {
	var out []int64
	for _, f := range frames {
		if len(f) != 8 {
			continue
		}
		var v int64
		for _, c := range f {
			v = v<<8 | int64(c)
		}
		out = append(out, v)
	}
	return out
}
