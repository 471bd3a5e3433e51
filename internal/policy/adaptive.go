package policy

import (
	"math"
	"time"

	"logmob/internal/ctxsvc"
)

// This file is the live half of paradigm selection: a decider built to sit
// in the middleware's sense→decide→act loop. Where CostDecider scores a
// snapshot of the context, AdaptiveDecider consumes the *stream* of sensed
// attributes — smoothing each one with an EWMA filter so a single noisy
// sample cannot flip the decision, weighting energy by the remaining
// battery so a draining device grows frugal, and applying switching
// hysteresis so the selection is stable between genuinely different
// regimes instead of flapping on the boundary.

// ewma is an exponentially weighted moving average over a sensed stream.
// The zero value is ready to use with the given alpha.
type ewma struct {
	// alpha is the weight of the newest sample in (0,1]; 1 disables
	// smoothing. Values outside the range are treated as 1.
	alpha float64
	val   float64
	init  bool
}

// observe folds one sample in and returns the smoothed value.
func (e *ewma) observe(x float64) float64 {
	a := e.alpha
	if a <= 0 || a > 1 || math.IsNaN(a) {
		a = 1
	}
	if !e.init || math.IsNaN(e.val) {
		e.val, e.init = x, true
	} else {
		e.val = a*x + (1-a)*e.val
	}
	return e.val
}

// AdaptiveDecider selects paradigms from live context with EWMA smoothing,
// battery-aware energy weighting and switching hysteresis. It is stateful:
// use one instance per host and task shape (an adapt.Engine owns one), never
// shared. Counting decisions and switches is the engine's job.
type AdaptiveDecider struct {
	// Objective weights the cost-model score; the zero value minimises
	// bytes only, like CostDecider.
	Objective Objective
	// Alpha is the EWMA weight of the newest context sample; 0 defaults
	// to 0.5 (half-life of one sensing tick).
	Alpha float64
	// Hysteresis is the relative margin a challenger paradigm must beat
	// the incumbent's score by before the decider switches; 0 defaults to
	// 0.15, negative disables hysteresis entirely.
	Hysteresis float64
	// BatteryAware scales the energy weight by 1/battery as the sensed
	// battery level falls, so a draining device shifts toward the
	// lowest-energy paradigm before the radio dies.
	BatteryAware bool

	bwF, rttF, lossF, energyF, battF ewma
	current                          Paradigm
}

var _ Decider = (*AdaptiveDecider)(nil)

// Name implements Decider.
func (d *AdaptiveDecider) Name() string { return "adaptive" }

func (d *AdaptiveDecider) alpha() float64 {
	if d.Alpha > 0 && d.Alpha <= 1 {
		return d.Alpha
	}
	return 0.5
}

func (d *AdaptiveDecider) hysteresis() float64 {
	switch {
	case d.Hysteresis < 0:
		return 0
	case d.Hysteresis == 0:
		return 0.15
	default:
		return d.Hysteresis
	}
}

// link samples the sensed link attributes through the EWMA filters and
// returns the smoothed link the score uses.
func (d *AdaptiveDecider) link(ctx *ctxsvc.Service) (Link, float64) {
	raw := LinkFromContext(ctx)
	a := d.alpha()
	for _, f := range []*ewma{&d.bwF, &d.rttF, &d.lossF, &d.energyF, &d.battF} {
		f.alpha = a
	}
	smoothed := Link{
		BandwidthBps:  d.bwF.observe(raw.BandwidthBps),
		RTT:           time.Duration(d.rttF.observe(raw.RTT.Seconds()) * float64(time.Second)),
		CostPerByte:   raw.CostPerByte,
		Loss:          d.lossF.observe(raw.loss()),
		LossPenalty:   raw.LossPenalty,
		EnergyPerByte: d.energyF.observe(raw.EnergyPerByte),
	}
	battery := 1.0
	if ctx != nil {
		battery = ctx.GetNum(ctxsvc.KeyBattery, 1)
	}
	battery = d.battF.observe(clamp01(battery))
	return smoothed, battery
}

// effectiveObjective applies the battery-aware energy scaling: at full
// battery the configured weight holds; as the battery drains the energy
// term grows as 1/battery (floored at 5% to stay finite).
func (d *AdaptiveDecider) effectiveObjective(battery float64) Objective {
	obj := d.Objective
	if d.BatteryAware && obj.EnergyWeight > 0 {
		if battery < 0.05 {
			battery = 0.05
		}
		obj.EnergyWeight /= battery
	}
	return obj
}

func clamp01(v float64) float64 {
	switch {
	case math.IsNaN(v) || v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}

// Choose implements Decider. The scores of the incumbent and of the best
// challenger fall out of the one pass over allowed, so the regret of holding
// the incumbent under hysteresis costs no second scoring.
func (d *AdaptiveDecider) Choose(t Task, allowed []Paradigm, ctx *ctxsvc.Service) (Paradigm, float64) {
	link, battery := d.link(ctx)
	env := EnvFromContext(ctx)
	obj := d.effectiveObjective(battery)

	best := allowed[0]
	bestScore := math.Inf(1)
	curScore := math.NaN()
	for _, p := range allowed {
		score := obj.score(estimate(p, t, link, env))
		if score < bestScore {
			best, bestScore = p, score
		}
		if p == d.current {
			curScore = score
		}
	}
	// Hysteresis: stick with a still-allowed incumbent unless the best
	// challenger undercuts it by the margin.
	if !math.IsNaN(curScore) && best != d.current {
		if bestScore >= curScore*(1-d.hysteresis()) {
			return d.current, curScore - bestScore
		}
	}
	d.current = best
	return best, 0
}
