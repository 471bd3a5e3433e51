// Package policy implements paradigm selection: the middleware's run-time
// assessment of which mobile-code paradigm — Client/Server, Remote
// Evaluation, Code On Demand or Mobile Agent — best fits an interaction.
//
// The paper: "Different mobile code paradigms could be plugged-in
// dynamically and used when needed after assessment of the environment and
// application", citing the PrimaMob-UML performance-analysis approach. This
// package provides the analytic traffic model for the four paradigms (after
// Fuggetta, Picco and Vigna's decomposition) and two deciders over it: a
// pure cost-model decider and a context-driven rule decider.
package policy

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"logmob/internal/ctxsvc"
)

// Paradigm is one of the four mobile-interaction forms the paper adopts.
type Paradigm uint8

// The four paradigms.
const (
	// CS is Client/Server: every interaction crosses the link.
	CS Paradigm = iota + 1
	// REV is Remote Evaluation: ship code to the resource, get results.
	REV
	// COD is Code On Demand: fetch code once, interact locally thereafter.
	COD
	// MA is Mobile Agent: ship code and state, let it roam, get state back.
	MA
)

// String returns the conventional acronym.
func (p Paradigm) String() string {
	switch p {
	case CS:
		return "CS"
	case REV:
		return "REV"
	case COD:
		return "COD"
	case MA:
		return "MA"
	default:
		return fmt.Sprintf("paradigm(%d)", uint8(p))
	}
}

// Paradigms lists all four in canonical order.
func Paradigms() []Paradigm { return []Paradigm{CS, REV, COD, MA} }

// Task describes an interaction pattern between a device and a remote
// resource, in the units of the Fuggetta/Picco/Vigna traffic model.
type Task struct {
	// Interactions is the number of request/response rounds N.
	Interactions int64
	// ReqBytes and ReplyBytes size one request and one reply.
	ReqBytes, ReplyBytes int64
	// CodeBytes sizes the mobile code implementing the interaction logic.
	CodeBytes int64
	// StateBytes sizes an agent's carried data/state.
	StateBytes int64
	// ResultBytes sizes the final result returned to the device.
	ResultBytes int64
	// ComputeUnits is the total computation the interactions require, in
	// reference-CPU seconds.
	ComputeUnits float64
	// Hosts is the number of remote hosts an agent must visit (MA only);
	// 0 or 1 means a single destination.
	Hosts int64
}

// Link characterises the device's current link for cost estimation.
type Link struct {
	// BandwidthBps is bytes per second.
	BandwidthBps float64
	// RTT is the round-trip latency.
	RTT time.Duration
	// CostPerByte is monetary cost per byte.
	CostPerByte float64
	// Loss is the observed per-message loss probability in [0,1). 0 keeps
	// the loss-free model.
	Loss float64
	// LossPenalty is the expected delay each retransmission costs (the
	// transport's retry timeout); 0 defaults to 2s when Loss > 0.
	LossPenalty time.Duration
	// EnergyPerByte is the battery energy the link charges per byte moved,
	// in the simulator's energy units. 0 keeps energy out of the estimates.
	EnergyPerByte float64
}

func (l Link) lossPenalty() time.Duration {
	if l.LossPenalty > 0 {
		return l.LossPenalty
	}
	return 2 * time.Second
}

// loss returns the link loss clamped to [0, 0.99]: the model degrades
// gracefully instead of dividing by zero on a fully dead link.
func (l Link) loss() float64 {
	switch {
	case !(l.Loss > 0): // negative and NaN both mean "no loss model"
		return 0
	case l.Loss > 0.99:
		return 0.99
	default:
		return l.Loss
	}
}

// Env characterises the compute environment.
type Env struct {
	// LocalCPUFactor is the device's speed relative to the reference CPU.
	LocalCPUFactor float64
	// RemoteCPUFactor is the remote host's speed.
	RemoteCPUFactor float64
}

// Traffic returns the bytes this task moves over the device's link under
// each paradigm, per the model:
//
//	CS:  N*(req+reply)                 every round crosses the link
//	REV: code + req + result           ship logic once, get the result
//	COD: code + reply + N*0            fetch the component once, then local
//	MA:  code + state + state'         agent leaves once and returns once
//
// For MA with multiple hosts, only the first hop and the return cross the
// *device's* link; inter-server hops are charged elsewhere.
func Traffic(p Paradigm, t Task) int64 {
	switch p {
	case CS:
		return t.Interactions * (t.ReqBytes + t.ReplyBytes)
	case REV:
		return t.CodeBytes + t.ReqBytes + t.ResultBytes
	case COD:
		// The component is fetched once; interactions are then local.
		return t.CodeBytes + t.ReplyBytes
	case MA:
		return t.CodeBytes + t.StateBytes + t.StateBytes + t.ResultBytes
	default:
		return 0
	}
}

// Messages returns how many message legs the task puts on the device's link
// under each paradigm: the per-message exposure to loss. CS pays a request
// and a reply per round; REV and COD pay one shipment and one reply; MA pays
// one transfer per hop out plus the return.
func Messages(p Paradigm, t Task) int64 {
	switch p {
	case CS:
		return 2 * t.Interactions
	case REV, COD:
		return 2
	case MA:
		hops := t.Hosts
		if hops < 1 {
			hops = 1
		}
		return hops + 1
	default:
		return 0
	}
}

// UplinkBytes returns the share of Traffic the device transmits itself;
// DownlinkBytes is the share it receives. The split matters under loss: a
// sender retransmits its frames (paying the energy each attempt), while a
// receiver pays only for the copy that arrives.
func UplinkBytes(p Paradigm, t Task) int64 {
	switch p {
	case CS:
		return t.Interactions * t.ReqBytes
	case REV:
		return t.CodeBytes + t.ReqBytes
	case COD:
		return 0 // the fetch request is noise next to the component
	case MA:
		return t.CodeBytes + t.StateBytes
	default:
		return 0
	}
}

// DownlinkBytes is the received share of Traffic (see UplinkBytes).
func DownlinkBytes(p Paradigm, t Task) int64 {
	return Traffic(p, t) - UplinkBytes(p, t)
}

// EnergyCost estimates the battery energy the task drains from the device
// under each paradigm: link traffic times the link's per-byte energy, with
// the transmitted share inflated by the expected retransmissions at the
// observed loss rate. This is what makes a draining device prefer
// receive-heavy paradigms (fetch the code) over send-heavy ones (ship the
// code) on a lossy link.
func EnergyCost(p Paradigm, t Task, l Link) float64 {
	up := float64(UplinkBytes(p, t))
	down := float64(DownlinkBytes(p, t))
	if loss := l.loss(); loss > 0 {
		up /= 1 - loss // expected attempts per transmitted frame
	}
	return (up + down) * l.EnergyPerByte
}

// Latency estimates wall-clock completion time for the task under each
// paradigm on the given link and environment. It combines transfer time,
// per-round RTTs, compute time at the executing side and — when the link
// reports loss — the expected retransmission delay per message leg.
func Latency(p Paradigm, t Task, l Link, e Env) time.Duration {
	if l.BandwidthBps <= 0 {
		l.BandwidthBps = 1
	}
	local := cpuFactorOr(e.LocalCPUFactor)
	remote := cpuFactorOr(e.RemoteCPUFactor)
	xfer := func(bytes int64) time.Duration {
		return time.Duration(float64(bytes) / l.BandwidthBps * float64(time.Second))
	}
	compute := func(factor float64) time.Duration {
		return time.Duration(t.ComputeUnits / factor * float64(time.Second))
	}
	var base time.Duration
	switch p {
	case CS:
		// N rounds, each paying one RTT plus transfer; compute is remote.
		rounds := time.Duration(t.Interactions) * l.RTT
		base = rounds + xfer(t.Interactions*(t.ReqBytes+t.ReplyBytes)) + compute(remote)
	case REV:
		base = 2*l.RTT + xfer(t.CodeBytes+t.ReqBytes+t.ResultBytes) + compute(remote)
	case COD:
		// One fetch round trip, then local interaction and compute.
		base = l.RTT + xfer(t.CodeBytes+t.ReplyBytes) + compute(local)
	case MA:
		hops := t.Hosts
		if hops < 1 {
			hops = 1
		}
		// Device pays first and last hop; intermediate hops assumed on
		// fast infrastructure and charged one RTT each.
		base = time.Duration(hops+1)*l.RTT + xfer(t.CodeBytes+2*t.StateBytes+t.ResultBytes) + compute(remote)
	default:
		return 0
	}
	if loss := l.loss(); loss > 0 {
		// Each message leg expects loss/(1-loss) retransmissions, each
		// costing one retry timeout. Chatty paradigms expose more legs, so
		// loss separates them from ship-once paradigms — which is exactly
		// what the live decider needs to see.
		retrans := float64(Messages(p, t)) * loss / (1 - loss)
		base += time.Duration(retrans * float64(l.lossPenalty()))
	}
	return base
}

// Cost returns the monetary cost of the task under each paradigm on the
// given link.
func Cost(p Paradigm, t Task, l Link) float64 {
	return float64(Traffic(p, t)) * l.CostPerByte
}

func cpuFactorOr(f float64) float64 {
	if f <= 0 {
		return 1
	}
	return f
}

// prediction bundles one paradigm's predictions for a task.
type prediction struct {
	bytes   int64
	latency time.Duration
	cost    float64
	// energy is the predicted battery drain (see EnergyCost).
	energy float64
}

// estimate evaluates one paradigm.
func estimate(p Paradigm, t Task, l Link, e Env) prediction {
	return prediction{
		bytes:   Traffic(p, t),
		latency: Latency(p, t, l, e),
		cost:    Cost(p, t, l),
		energy:  EnergyCost(p, t, l),
	}
}

// Objective weights the decider's optimisation.
type Objective struct {
	// BytesWeight, LatencyWeight (per second), CostWeight and EnergyWeight
	// scale the estimate dimensions into one score. Zero-value objective
	// minimises bytes only.
	BytesWeight   float64
	LatencyWeight float64
	CostWeight    float64
	EnergyWeight  float64
}

// DefaultObjective minimises traffic with a mild latency term.
func DefaultObjective() Objective {
	return Objective{BytesWeight: 1, LatencyWeight: 100}
}

func (o Objective) score(e prediction) float64 {
	if o.BytesWeight == 0 && o.LatencyWeight == 0 && o.CostWeight == 0 && o.EnergyWeight == 0 {
		o.BytesWeight = 1
	}
	return o.BytesWeight*float64(e.bytes) +
		o.LatencyWeight*e.latency.Seconds() +
		o.CostWeight*e.cost +
		o.EnergyWeight*e.energy
}

// Decider chooses a paradigm for a task given the host's current context.
type Decider interface {
	// Name identifies the decider in experiment tables.
	Name() string
	// Choose selects from allowed — the one restriction there is: what the
	// caller can execute, non-empty and already validated (Decide checks
	// it) — and returns the model regret of the selection, the decider's
	// own score for it minus its best score in allowed. Only a decider that
	// can hold a dominated incumbent reports more than 0. ctx may be nil.
	Choose(t Task, allowed []Paradigm, ctx *ctxsvc.Service) (p Paradigm, regret float64)
}

// CostDecider picks the paradigm minimising the weighted objective under the
// analytic model, reading link parameters from context when available.
type CostDecider struct {
	Objective Objective
}

var _ Decider = (*CostDecider)(nil)

// Name implements Decider.
func (d *CostDecider) Name() string { return "cost-model" }

// LinkFromContext derives Link parameters from context attributes, with
// sensible defaults for unset keys.
func LinkFromContext(ctx *ctxsvc.Service) Link {
	l := Link{BandwidthBps: 650e3, RTT: 20 * time.Millisecond}
	if ctx == nil {
		return l
	}
	l.BandwidthBps = ctx.GetNum(ctxsvc.KeyBandwidth, l.BandwidthBps)
	l.RTT = time.Duration(ctx.GetNum(ctxsvc.KeyLatency, l.RTT.Seconds()) * float64(time.Second))
	l.CostPerByte = ctx.GetNum(ctxsvc.KeyCostPerByte, 0)
	l.EnergyPerByte = ctx.GetNum(ctxsvc.KeyEnergyPerByte, 0)
	// Loss evidence comes from two sensors: the link state itself and the
	// ack/retry layer's observed retry ratio. Take whichever is worse —
	// both are lower bounds on the true loss the device experiences.
	l.Loss = ctx.GetNum(ctxsvc.KeyLoss, 0)
	if rr := ctx.GetNum(ctxsvc.KeyRetryRate, 0); rr > l.Loss {
		l.Loss = rr
	}
	return l
}

// EnvFromContext derives Env from context attributes.
func EnvFromContext(ctx *ctxsvc.Service) Env {
	e := Env{LocalCPUFactor: 1, RemoteCPUFactor: 1}
	if ctx == nil {
		return e
	}
	e.LocalCPUFactor = ctx.GetNum(ctxsvc.KeyCPUFactor, 1)
	e.RemoteCPUFactor = ctx.GetNum("remote."+ctxsvc.KeyCPUFactor, 1)
	return e
}

// Choose implements Decider.
func (d *CostDecider) Choose(t Task, allowed []Paradigm, ctx *ctxsvc.Service) (Paradigm, float64) {
	link := LinkFromContext(ctx)
	env := EnvFromContext(ctx)
	best := allowed[0]
	bestScore := 0.0
	for i, p := range allowed {
		score := d.Objective.score(estimate(p, t, link, env))
		if i == 0 || score < bestScore {
			best, bestScore = p, score
		}
	}
	return best, 0
}

// RuleDecider applies the simple context rules a deployment might configure
// instead of the full model: expensive links push toward agents, repeated
// local use pushes toward COD, weak devices push toward REV.
type RuleDecider struct {
	// ExpensiveCostPerByte is the threshold above which the link counts as
	// expensive (e.g. GPRS).
	ExpensiveCostPerByte float64
	// ManyInteractions is the threshold above which COD amortises.
	ManyInteractions int64
	// WeakCPUFactor is the threshold below which the device offloads.
	WeakCPUFactor float64
}

var _ Decider = (*RuleDecider)(nil)

// DefaultRules returns thresholds matching the predefined link classes.
func DefaultRules() *RuleDecider {
	return &RuleDecider{
		ExpensiveCostPerByte: 1e-6,
		ManyInteractions:     8,
		WeakCPUFactor:        0.5,
	}
}

// Name implements Decider.
func (d *RuleDecider) Name() string { return "rules" }

// ErrInvalidTask wraps every Task validation failure.
var ErrInvalidTask = errors.New("policy: invalid task")

func invalidTaskf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidTask, fmt.Sprintf(format, args...))
}

// Validate rejects task models the traffic model has no meaning for:
// negative sizes or rounds, and non-finite or negative compute. The zero
// Task is valid (a one-shot, zero-byte interaction).
func (t Task) Validate() error {
	sizes := []struct {
		name string
		v    int64
	}{
		{"interactions", t.Interactions},
		{"request bytes", t.ReqBytes},
		{"reply bytes", t.ReplyBytes},
		{"code bytes", t.CodeBytes},
		{"state bytes", t.StateBytes},
		{"result bytes", t.ResultBytes},
		{"hosts", t.Hosts},
	}
	for _, s := range sizes {
		if s.v < 0 {
			return invalidTaskf("negative %s %d", s.name, s.v)
		}
	}
	if math.IsNaN(t.ComputeUnits) || math.IsInf(t.ComputeUnits, 0) || t.ComputeUnits < 0 {
		return invalidTaskf("compute units %v are not finite and non-negative", t.ComputeUnits)
	}
	return nil
}

// Decide is the validating front door to a Decider: hostile task models
// (negative sizes, NaN compute) and unusable paradigm sets error instead of
// flowing into the arithmetic. An empty allowed set is an error — a caller
// with nothing executable has no decision to make.
func Decide(d Decider, t Task, allowed []Paradigm, ctx *ctxsvc.Service) (Paradigm, error) {
	if d == nil {
		return 0, errors.New("policy: Decide requires a decider")
	}
	if err := t.Validate(); err != nil {
		return 0, err
	}
	if len(allowed) == 0 {
		return 0, invalidTaskf("empty allowed paradigm set")
	}
	for _, p := range allowed {
		if p < CS || p > MA {
			return 0, invalidTaskf("unknown paradigm %d in allowed set", uint8(p))
		}
	}
	p, _ := d.Choose(t, allowed, ctx)
	return p, nil
}

// Choose implements Decider.
// The rules know nothing of the restriction, so a pick outside allowed falls
// back to its first member.
func (d *RuleDecider) Choose(t Task, allowed []Paradigm, ctx *ctxsvc.Service) (Paradigm, float64) {
	costPerByte := 0.0
	cpu := 1.0
	if ctx != nil {
		costPerByte = ctx.GetNum(ctxsvc.KeyCostPerByte, 0)
		cpu = ctx.GetNum(ctxsvc.KeyCPUFactor, 1)
	}
	pick := CS
	switch {
	case costPerByte >= d.ExpensiveCostPerByte && d.ExpensiveCostPerByte > 0:
		// Paying per byte: send an agent out once rather than chat.
		pick = MA
	case cpu < d.WeakCPUFactor && t.ComputeUnits > 0:
		// Weak device with real compute: offload.
		pick = REV
	case t.Interactions >= d.ManyInteractions && t.CodeBytes > 0:
		// Heavy repeated use of one capability: fetch it.
		pick = COD
	}
	if !slices.Contains(allowed, pick) {
		pick = allowed[0]
	}
	return pick, 0
}
