package transport

import (
	"fmt"

	"logmob/internal/netsim"
)

// SimNetwork adapts a netsim.Network so each simulated node can be used as a
// transport Endpoint.
type SimNetwork struct {
	net *netsim.Network
}

// NewSimNetwork wraps net.
func NewSimNetwork(net *netsim.Network) *SimNetwork {
	return &SimNetwork{net: net}
}

// Scheduler returns the simulator's virtual-time scheduler.
func (s *SimNetwork) Scheduler() Scheduler { return s.net.Sim() }

// Endpoint returns the Endpoint for an existing simulated node.
func (s *SimNetwork) Endpoint(id string) (Endpoint, error) {
	if s.net.Node(id) == nil {
		return nil, fmt.Errorf("transport: no simulated node %q", id)
	}
	return &simEndpoint{net: s.net, id: id}, nil
}

type simEndpoint struct {
	net  *netsim.Network
	id   string
	nbrs []string // Neighbors' result, reused call over call
}

var _ Endpoint = (*simEndpoint)(nil)

func (e *simEndpoint) Addr() string { return e.id }

func (e *simEndpoint) Send(to string, payload []byte) error {
	return e.net.Send(e.id, to, payload)
}

func (e *simEndpoint) Broadcast(payload []byte) int {
	return e.net.Broadcast(e.id, payload)
}

func (e *simEndpoint) Neighbors() []string {
	e.nbrs = e.net.AppendNeighbors(e.nbrs[:0], e.id)
	return e.nbrs
}

func (e *simEndpoint) SetHandler(h Handler) {
	e.net.SetHandler(e.id, netsim.Handler(h))
}

func (e *simEndpoint) Close() error {
	e.net.SetUp(e.id, false)
	return nil
}
