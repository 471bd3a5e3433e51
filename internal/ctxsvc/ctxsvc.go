// Package ctxsvc implements the context-awareness service of a logmob host.
//
// The paper: "Through the use of context-awareness techniques, the
// middleware should notify applications of their current context, so that
// they can adapt accordingly." The service holds typed context attributes
// (battery, bandwidth, link cost, location, CPU factor, connectivity),
// lets sensors update them, notifies subscribers whose predicates match, and
// keeps a bounded history per attribute.
package ctxsvc

import (
	"fmt"
	"time"
)

// Key names a context attribute. Well-known keys are defined below; apps may
// define their own.
type Key string

// Well-known context attribute keys.
const (
	// KeyBattery is the battery level in [0,1].
	KeyBattery Key = "battery"
	// KeyBandwidth is the current link bandwidth in bytes/second.
	KeyBandwidth Key = "bandwidth.bps"
	// KeyCostPerByte is the current link monetary cost per byte.
	KeyCostPerByte Key = "link.cost.byte"
	// KeyLatency is the current link round-trip latency in seconds.
	KeyLatency Key = "link.latency.s"
	// KeyLocation is a symbolic location name (e.g. "cinema-lobby").
	KeyLocation Key = "location"
	// KeyCPUFactor is the host's relative compute speed (1.0 = reference).
	KeyCPUFactor Key = "cpu.factor"
	// KeyConnectivity is the current link class name ("adhoc", "gprs", ...).
	KeyConnectivity Key = "connectivity"
	// KeyNeighborCount is the number of one-hop neighbors.
	KeyNeighborCount Key = "neighbors"
	// KeyLoss is the observed per-message loss probability in [0,1).
	KeyLoss Key = "link.loss"
	// KeyEnergyPerByte is the link's battery energy cost per byte.
	KeyEnergyPerByte Key = "link.energy.byte"
	// KeyRetryRate is the observed transport retry ratio (retries per send
	// attempt) over the last sensing window — the ack/retry layer's live
	// loss evidence.
	KeyRetryRate Key = "link.retry.rate"
)

// Value is a context attribute value: a number, a string, or both.
type Value struct {
	Num float64
	Str string
}

// String renders the value for tables and logs.
func (v Value) String() string {
	if v.Str != "" {
		if v.Num != 0 {
			return fmt.Sprintf("%s(%g)", v.Str, v.Num)
		}
		return v.Str
	}
	return fmt.Sprintf("%g", v.Num)
}

// Sample is one historical observation of an attribute.
type Sample struct {
	At    time.Duration
	Value Value
}

// Subscription handles cancellation of a Subscribe.
type Subscription struct {
	cancel func()
}

// Cancel stops delivery. Safe to call multiple times.
func (s *Subscription) Cancel() {
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
}

type subscriber struct {
	id   int
	pred func(Value) bool
	fn   func(Key, Value)
}

// Service is a host's context service. It is single-goroutine, like the
// simulation handlers that drive it; the middleware serialises access.
type Service struct {
	now     func() time.Duration
	histCap int
	attrs   map[Key]Value
	history map[Key][]Sample
	subs    map[Key][]subscriber
	nextID  int
}

// New returns a context service using now as its clock. histCap bounds the
// per-attribute history length (0 means 64).
func New(now func() time.Duration, histCap int) *Service {
	if histCap <= 0 {
		histCap = 64
	}
	return &Service{
		now:     now,
		histCap: histCap,
		attrs:   make(map[Key]Value),
		history: make(map[Key][]Sample),
		subs:    make(map[Key][]subscriber),
	}
}

// Set updates an attribute, records history and notifies matching
// subscribers. A full history drops its oldest sample by shifting the rest
// down in place, so it never reallocates.
func (s *Service) Set(k Key, v Value) {
	s.attrs[k] = v
	smp := Sample{At: s.now(), Value: v}
	h := s.history[k]
	if len(h) < s.histCap {
		h = append(h, smp)
	} else {
		copy(h, h[1:])
		h[len(h)-1] = smp
	}
	s.history[k] = h
	for _, sub := range s.subs[k] {
		if sub.pred == nil || sub.pred(v) {
			sub.fn(k, v)
		}
	}
}

// SetNum is Set with a numeric value.
func (s *Service) SetNum(k Key, f float64) { s.Set(k, Value{Num: f}) }

// SetStr is Set with a string value.
func (s *Service) SetStr(k Key, str string) { s.Set(k, Value{Str: str}) }

// GetNum returns the numeric value of k, or fallback if unset.
func (s *Service) GetNum(k Key, fallback float64) float64 {
	if v, ok := s.attrs[k]; ok {
		return v.Num
	}
	return fallback
}

// GetStr returns the string value of k, or fallback if unset.
func (s *Service) GetStr(k Key, fallback string) string {
	if v, ok := s.attrs[k]; ok && v.Str != "" {
		return v.Str
	}
	return fallback
}

// History returns up to n most recent samples of k, oldest first. n <= 0
// returns all retained samples.
func (s *Service) History(k Key, n int) []Sample {
	h := s.history[k]
	if n > 0 && len(h) > n {
		h = h[len(h)-n:]
	}
	out := make([]Sample, len(h))
	copy(out, h)
	return out
}

// Subscribe registers fn for updates of k whose value satisfies pred (nil
// pred matches everything). fn runs synchronously inside Set, and may
// subscribe or cancel; a subscription cancelled during a Set still receives
// that Set.
func (s *Service) Subscribe(k Key, pred func(Value) bool, fn func(Key, Value)) *Subscription {
	s.nextID++
	id := s.nextID
	s.subs[k] = append(s.subs[k], subscriber{id: id, pred: pred, fn: fn})
	return &Subscription{cancel: func() {
		list := s.subs[k]
		for i, sub := range list {
			if sub.id == id {
				// Copy on write: a Set may be ranging over list, and
				// shifting it in place would skip the next subscriber and
				// run the last one twice. The copy costs Cancel, not Set.
				s.subs[k] = append(list[:i:i], list[i+1:]...)
				return
			}
		}
	}}
}
