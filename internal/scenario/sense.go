package scenario

import (
	"time"

	"logmob/internal/ctxsvc"
	"logmob/internal/transport"
)

// Sense is the live context-sensing block of a Spec: it closes the gap
// between the simulated environment and each host's context service by
// sampling real measurements onto the event loop at a fixed tick —
//
//   - observed bandwidth, latency and loss from the node's netsim link
//     state (class parameters degraded by the current impairment rules),
//   - the ack/retry layer's retry ratio over the last window, when the
//     world runs transport.Reliable (Faults.Retry), as live loss evidence,
//   - battery level from traffic energy drained against the population's
//     EnergyBudget,
//   - a neighbor count from the node's discovery beacon (distinct cached
//     providers) when it has one, else from the radio neighbor set,
//   - the link class name and per-byte cost/energy constants.
//
// Samples are written through ctxsvc.Set, so histories accumulate and
// subscriptions fire. Sampling walks nodes in creation order inside a
// single scheduled event, so sensed histories are byte-identical at any
// worker count. The zero value is inert: no tick, no sensors, no events.
type Sense struct {
	// Tick is the sampling period; 0 disables sensing entirely.
	Tick time.Duration
	// Pops restricts sensing to the named populations; empty senses every
	// population.
	Pops []string
}

// IsZero reports whether the sensing block changes nothing: compilation
// is driven by the tick alone, so a block naming populations without a
// tick is still inert.
func (s *Sense) IsZero() bool { return s.Tick <= 0 }

// validate checks the sensing block against the spec's populations.
func (s *Sense) validate(pops map[string]bool) error {
	if s.Tick < 0 {
		return invalidf("sense tick %v negative", s.Tick)
	}
	seen := make(map[string]bool, len(s.Pops))
	for _, p := range s.Pops {
		if !pops[p] {
			return invalidf("sense names unknown population %q", p)
		}
		if seen[p] {
			// Double-sampling a node per tick would zero its retry-rate
			// window on the second pass and double-write histories.
			return invalidf("sense lists population %q more than once", p)
		}
		seen[p] = true
	}
	return nil
}

// retryWindow tracks one Reliable's counters across sensing ticks so the
// sensed retry rate reflects the last window, not the whole run.
type retryWindow struct {
	attempts, retries int64
}

// compile wires the sensing loop into a fully built world.
func (s *Sense) compile(w *World, spec *Spec) {
	if s.Tick <= 0 {
		return
	}
	// Resolve the sensed node set once, in creation order.
	var names []string
	if len(s.Pops) == 0 {
		for pi := range spec.Populations {
			names = append(names, w.Pops[spec.Populations[pi].Name]...)
		}
	} else {
		for _, pop := range s.Pops {
			names = append(names, w.Pops[pop]...)
		}
	}
	windows := make(map[string]*retryWindow, len(names))
	var tick transport.Timer
	tick = w.Sim.NewTimer(func() {
		for _, name := range names {
			sampleNode(w, name, windows)
		}
		tick.Reset(s.Tick)
	})
	tick.Reset(s.Tick)
}

// sampleNode writes one node's sensed attributes into its host context.
func sampleNode(w *World, name string, windows map[string]*retryWindow) {
	h := w.Hosts[name]
	node := w.Net.Node(name)
	if h == nil || node == nil {
		return
	}
	ctx := h.Context()
	bw, lat, loss := w.Net.LinkState(name)
	ctx.SetNum(ctxsvc.KeyBandwidth, bw)
	// LinkState reports one-way propagation; KeyLatency is defined (and
	// consumed by policy.LinkFromContext) as round-trip latency.
	ctx.SetNum(ctxsvc.KeyLatency, (2 * lat).Seconds())
	ctx.SetNum(ctxsvc.KeyLoss, loss)
	ctx.SetStr(ctxsvc.KeyConnectivity, node.Class.Name)
	ctx.SetNum(ctxsvc.KeyCostPerByte, node.Class.CostPerByte)
	ctx.SetNum(ctxsvc.KeyEnergyPerByte, node.Class.EnergyPerByte)
	if node.EnergyBudget() > 0 {
		ctx.SetNum(ctxsvc.KeyBattery, node.Battery())
	}
	if rel := w.Reliables[name]; rel != nil {
		win := windows[name]
		if win == nil {
			win = &retryWindow{}
			windows[name] = win
		}
		st := rel.Stats()
		attempts := st.Sent + st.Retries
		dA, dR := attempts-win.attempts, st.Retries-win.retries
		win.attempts, win.retries = attempts, st.Retries
		rate := 0.0
		if dA > 0 {
			rate = float64(dR) / float64(dA)
		}
		ctx.SetNum(ctxsvc.KeyRetryRate, rate)
	}
	if b := w.Beacons[name]; b != nil {
		ctx.SetNum(ctxsvc.KeyNeighborCount, float64(b.Providers()))
	} else {
		ctx.SetNum(ctxsvc.KeyNeighborCount, float64(len(w.Net.Neighbors(name))))
	}
}
