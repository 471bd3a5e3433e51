// Package baseline implements the non-logical-mobility comparators the
// experiments measure logmob against:
//
//   - Preload: the "manufacturers preload the code for every possible use"
//     deployment the paper argues is infeasible on limited-resource devices.
//   - Messenger: conventional end-to-end routed messaging, the comparator
//     for the disaster scenario's store-carry-forward agents. A routed
//     message needs a contemporaneous path; the agent only ever needs the
//     next hop.
package baseline

import (
	"time"

	"logmob/internal/lmu"
	"logmob/internal/netsim"
	"logmob/internal/registry"
	"logmob/internal/transport"
)

// Preload installs every unit into the registry up front, pinning each so
// nothing is evictable — the no-logical-mobility deployment model — and
// returns the bytes consumed. Units that do not fit the quota are not
// installed.
func Preload(reg *registry.Registry, units []*lmu.Unit) (footprint int64) {
	for _, u := range units {
		if err := reg.Put(u); err == nil {
			reg.Pin(u.Manifest.Name, u.Manifest.Version, true)
		}
	}
	return reg.Used()
}

// MessageOutcome describes one end-to-end message attempt stream.
type MessageOutcome struct {
	Delivered   bool
	DeliveredAt time.Duration
	Attempts    int
}

// retryInterval is the Messenger's retransmission interval.
const retryInterval = time.Second

// Messenger delivers payloads over the current routed topology,
// retransmitting on a fixed interval until delivery or deadline. It models a
// conventional MANET routing layer: a message gets through only while a
// multi-hop path exists end to end at send time.
type Messenger struct {
	net      *netsim.Network
	deadline time.Duration
}

// NewMessenger builds a messenger over net that retries each message for
// up to deadline.
func NewMessenger(net *netsim.Network, deadline time.Duration) *Messenger {
	return &Messenger{net: net, deadline: deadline}
}

// SendUntilConfirmed keeps retransmitting payload until confirmed reports
// true (the caller's destination handler observed the message) or the
// deadline passes, and then calls done once. This is the fair comparator for
// agent delivery: losses and mid-route topology changes trigger
// retransmission.
func (m *Messenger) SendUntilConfirmed(src, dst string, payload []byte, confirmed func() bool, done func(MessageOutcome)) {
	msg := &message{m: m, src: src, dst: dst, payload: payload, confirmed: confirmed, done: done, start: m.net.Sim().Now()}
	msg.attempt()
}

// message is one SendUntilConfirmed stream. Its retry timer is made on the
// first retransmission and re-armed by each later one.
type message struct {
	m         *Messenger
	src, dst  string
	payload   []byte
	confirmed func() bool
	done      func(MessageOutcome)
	start     time.Duration
	outcome   MessageOutcome
	timer     transport.Timer // nil until the first retransmission
}

func (msg *message) attempt() {
	sim := msg.m.net.Sim()
	if msg.confirmed() {
		msg.outcome.Delivered = true
		msg.outcome.DeliveredAt = sim.Now()
		msg.done(msg.outcome)
		return
	}
	if sim.Now()-msg.start > msg.m.deadline {
		msg.done(msg.outcome)
		return
	}
	msg.outcome.Attempts++
	// An unroutable send is not an error here: the next attempt retries.
	_, _ = msg.m.net.SendRouted(msg.src, msg.dst, msg.payload)
	if msg.timer == nil {
		msg.timer = sim.NewTimer(msg.attempt)
	}
	msg.timer.Reset(retryInterval)
}
