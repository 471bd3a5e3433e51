// Package transport abstracts message delivery between logmob hosts.
//
// The middleware kernel talks to peers only through the Endpoint interface,
// so the same kernel runs unchanged over two implementations: the
// deterministic network simulator (experiments and tests) and real TCP
// (cmd/logmobd). A Scheduler abstraction likewise hides whether time is
// virtual or wall-clock.
package transport

import (
	"errors"
	"time"
)

// ErrClosed reports an operation on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// Handler receives a message addressed to the endpoint. Simulator handlers
// run on the simulation goroutine and must not block; TCP handlers run on the
// connection's reader goroutine, and frames a TCP handler sends may leave
// only once the frames already buffered behind its own have been dispatched.
//
// The payload is borrowed until the handler returns, on every Endpoint:
// netsim's recycled delivery buffer, the TCP connection's frame buffer, a
// Mux or Reliable frame around either. The next delivery overwrites it, so
// a handler copies whatever it keeps past its return. A handler must not
// write to the payload: the receivers of one netsim broadcast share a
// single copy.
type Handler func(from string, payload []byte)

// Endpoint sends and receives framed messages for one host address.
type Endpoint interface {
	// Addr returns the endpoint's own address.
	Addr() string
	// Send transmits payload to the endpoint at the given address.
	Send(to string, payload []byte) error
	// Broadcast transmits payload to every neighbor/known peer. It returns
	// the number of peers targeted. Best effort.
	Broadcast(payload []byte) int
	// Neighbors lists the addresses currently reachable in one hop. The
	// slice is borrowed until the next call: copy it to keep it.
	Neighbors() []string
	// SetHandler installs the receive callback. Must be called before any
	// message can be delivered.
	SetHandler(h Handler)
	// Close releases the endpoint's resources. It is idempotent. Once it
	// returns the handler is not called again and Send fails: with
	// ErrClosed, except on a simulated endpoint, whose Close takes the node
	// down so that netsim reports it unreachable.
	Close() error
}

// Scheduler runs callbacks later, in the endpoint's notion of time. A timer
// is the only way: a one-shot is NewTimer(fn).Reset(d), and recurring work
// re-arms its one timer from its own callback.
type Scheduler interface {
	// Now returns the elapsed time on this scheduler's clock.
	Now() time.Duration
	// NewTimer returns a stopped Timer that runs fn each time it fires.
	NewTimer(fn func()) Timer
}

// Timer is a reusable one-shot callback: made once, re-armed for every use,
// so a request, retry or periodic tick that is armed again and again costs
// no allocation. Reset(d) arms it to run its function once after d,
// superseding any pending firing; Stop cancels a pending firing. Neither
// waits for a callback that is already running, so both are safe under a
// lock the callback takes.
//
// On a wall-clock scheduler a firing that had already begun when Reset or
// Stop was called still runs. A caller that recycles what its callback
// touches rechecks, under its lock, that the record is still live and its
// deadline has passed (core's request records and Reliable's retry records
// both do). Over the simulator a superseded firing never runs.
//
// Timer is an alias of an unnamed interface so that netsim, which this
// package imports, can return one without importing it.
type Timer = interface {
	Reset(d time.Duration)
	Stop()
}
