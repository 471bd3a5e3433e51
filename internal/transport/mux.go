package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"logmob/internal/wire"
)

// Channel IDs used across logmob. Defined here so every subsystem agrees.
const (
	// ChanKernel carries the middleware kernel protocol (RPC, eval, fetch,
	// agent transfer).
	ChanKernel byte = 1
	// ChanLookup carries the centralised lookup-service protocol.
	ChanLookup byte = 2
	// ChanBeacon carries decentralised discovery beacons.
	ChanBeacon byte = 3
	// ChanCluster carries the real-wire bootstrap/join membership protocol
	// (internal/cluster).
	ChanCluster byte = 4
)

// Mux multiplexes several logical channels over one Endpoint by prefixing
// each payload with a channel ID byte. Each channel behaves as an Endpoint
// of its own.
type Mux struct {
	ep Endpoint
	mu sync.Mutex
	// handlers is indexed by channel ID; nil means no handler. Sized for
	// the known channels up front, grown only for a larger ID.
	handlers []Handler // guarded by mu
}

// NewMux wraps ep and installs its dispatch handler.
func NewMux(ep Endpoint) *Mux {
	m := &Mux{ep: ep, handlers: make([]Handler, ChanCluster+1)}
	ep.SetHandler(m.dispatch)
	return m
}

func (m *Mux) dispatch(from string, payload []byte) {
	if len(payload) == 0 {
		return
	}
	var h Handler
	m.mu.Lock()
	if id := int(payload[0]); id < len(m.handlers) {
		h = m.handlers[id]
	}
	m.mu.Unlock()
	if h != nil {
		h(from, payload[1:])
	}
}

// Channel returns the Endpoint view of one channel.
func (m *Mux) Channel(id byte) Endpoint {
	return &muxChannel{mux: m, id: id}
}

type muxChannel struct {
	mux *Mux
	id  byte
	// closed is final for this view; a fresh Channel(id) may take the slot
	// again. Atomic because a TCP sender can race Close.
	closed atomic.Bool
}

var _ Endpoint = (*muxChannel)(nil)

func (c *muxChannel) Addr() string { return c.mux.ep.Addr() }

// Send frames the payload in a pooled buffer: no Endpoint implementation
// retains the frame past the call (netsim copies, TCP writes it or copies it
// into the connection's queue, Reliable re-frames into its own buffer), so
// it can be recycled on return.
func (c *muxChannel) Send(to string, payload []byte) error {
	if c.closed.Load() {
		return ErrClosed
	}
	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	b.PutByte(c.id)
	b.PutRaw(payload)
	return c.mux.ep.Send(to, b.Bytes())
}

func (c *muxChannel) Broadcast(payload []byte) int {
	if c.closed.Load() {
		return 0
	}
	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	b.PutByte(c.id)
	b.PutRaw(payload)
	return c.mux.ep.Broadcast(b.Bytes())
}

func (c *muxChannel) Neighbors() []string { return c.mux.ep.Neighbors() }

func (c *muxChannel) SetHandler(h Handler) {
	m := c.mux
	m.mu.Lock()
	defer m.mu.Unlock()
	id := int(c.id)
	if id >= len(m.handlers) {
		if h == nil {
			return
		}
		m.handlers = append(m.handlers, make([]Handler, id+1-len(m.handlers))...)
	}
	if h != nil && m.handlers[id] != nil {
		panic(fmt.Sprintf("transport: handler for mux channel %d installed twice", c.id))
	}
	m.handlers[id] = h
}

// Close detaches the channel's handler and ends this view: later sends fail
// with ErrClosed. The underlying endpoint stays open.
func (c *muxChannel) Close() error {
	if !c.closed.Swap(true) {
		c.SetHandler(nil)
	}
	return nil
}
