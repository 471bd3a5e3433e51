// Package cluster implements logmob's bootstrap/join protocol: the
// membership layer that lets N daemons on real sockets discover each other
// and keep a live peer set without any simulator in the loop.
//
// The protocol runs on its own mux channel (transport.ChanCluster) and has
// four frame kinds: a joining node sends hello to its configured seed nodes;
// every hello is answered with a peers frame carrying the responder's peer
// list (peer exchange); periodic ping/pong probes keep liveness fresh, and a
// peer that misses DeadAfter consecutive probes is evicted. Because the TCP
// endpoint reconnects on send, a probe to a restarted daemon re-dials it,
// and the cluster frames ride a transport.Reliable ack/retry wrapper, so a
// daemon that crashes and comes back heals into the mesh from both sides:
// its own hellos to the seeds, and the survivors' retried probes.
//
// The same code runs over the simulated transport (virtual time, event-loop
// handlers) and over real TCP (wall clock, reader-goroutine handlers); the
// tests exercise both.
package cluster

import (
	"slices"
	"sort"
	"sync"
	"time"

	"logmob/internal/transport"
	"logmob/internal/wire"
)

// Frame kinds on the cluster channel.
const (
	kindHello byte = 1 // join/announce; carries the sender's peer list, wants kindPeers back
	kindPeers byte = 2 // peer-exchange reply to a hello
	kindPing  byte = 3 // liveness probe
	kindPong  byte = 4 // liveness answer
)

// maxHellosPerFrame bounds the unseen addresses one hello or peers frame
// makes a node hello. The rest of a long list is reached through the
// answers: every peer that replies lists its own view.
const maxHellosPerFrame = 16

// Config tunes a cluster node.
type Config struct {
	// Seeds are the addresses contacted to join the cluster. Seeds absent
	// from the live peer set are re-contacted every probe interval, so a
	// node partitioned away from its seeds keeps trying to get back in.
	Seeds []string
	// ProbeEvery is the liveness probe period; 0 defaults to 2s.
	ProbeEvery time.Duration
	// DeadAfter is how many consecutive unanswered probes evict a peer;
	// 0 defaults to 3.
	DeadAfter int
	// Retry tunes the ack/retry layer the cluster frames ride on; the zero
	// value uses the transport.Reliable defaults (3 attempts, 2s apart).
	Retry transport.ReliableConfig
	// OnJoin, if set, observes every address entering the peer set.
	OnJoin func(addr string)
	// OnLeave, if set, observes every eviction.
	OnLeave func(addr string)
}

func (c Config) probeEvery() time.Duration {
	if c.ProbeEvery > 0 {
		return c.ProbeEvery
	}
	return 2 * time.Second
}

func (c Config) deadAfter() int {
	if c.DeadAfter > 0 {
		return c.DeadAfter
	}
	return 3
}

// Node is one cluster member: a membership view maintained over an Endpoint.
type Node struct {
	ep   transport.Endpoint // reliable-wrapped cluster channel
	cfg  Config
	self string

	// probe runs tick every probe interval. Join arms it, tick re-arms it
	// and Close stops it, each under mu, so once Close has returned it is
	// never re-armed.
	probe transport.Timer

	mu     sync.Mutex
	peers  map[string]int // addr -> missed probe count; guarded by mu
	closed bool           // guarded by mu
}

// Join starts a cluster node on ch (conventionally the endpoint mux's
// transport.ChanCluster channel) and contacts the configured seeds. Join
// owns ch's handler slot and wraps it in a transport.Reliable ack/retry
// layer, so every member of one cluster must join through this function —
// raw frames would not parse.
func Join(ch transport.Endpoint, sched transport.Scheduler, cfg Config) *Node {
	n := &Node{
		ep:    transport.NewReliable(ch, sched, cfg.Retry),
		cfg:   cfg,
		self:  ch.Addr(),
		peers: make(map[string]int),
	}
	n.probe = sched.NewTimer(n.tick)
	n.ep.SetHandler(n.dispatch)
	for _, s := range cfg.Seeds {
		if s != n.self {
			n.sendHello(s)
		}
	}
	n.mu.Lock()
	n.probe.Reset(cfg.probeEvery())
	n.mu.Unlock()
	return n
}

// Addr returns the node's own cluster address.
func (n *Node) Addr() string { return n.self }

// Peers returns the current live peer set, sorted.
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.peers))
	for a := range n.peers {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Close stops probing and detaches from the channel. The underlying
// endpoint mux stays open.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.probe.Stop()
	n.mu.Unlock()
	return n.ep.Close()
}

// touch marks addr alive, adding it to the peer set if new. It reports
// whether the address just joined. Callers fire OnJoin outside the lock.
func (n *Node) touch(addr string) (joined bool) {
	if addr == "" || addr == n.self {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	_, known := n.peers[addr]
	n.peers[addr] = 0
	return !known
}

// unseen returns the first maxHellosPerFrame distinct addresses of list that
// are neither in the peer set, nor the node's own, nor from, nor "".
func (n *Node) unseen(from string, list []string) []string {
	var out []string
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	for _, addr := range list {
		if len(out) == maxHellosPerFrame {
			break
		}
		if _, known := n.peers[addr]; known || addr == "" || addr == n.self || addr == from || slices.Contains(out, addr) {
			continue
		}
		out = append(out, addr)
	}
	return out
}

// dispatch handles one cluster frame. It runs on the transport's delivery
// context (event loop over the simulator, reader goroutine over TCP), so it
// must not block; every send below is asynchronous at the transport layer
// or bounded by the TCP dial timeout.
func (n *Node) dispatch(from string, payload []byte) {
	r := wire.NewReader(payload)
	kind := r.Byte()
	switch kind {
	case kindHello, kindPeers:
		list := r.StringSlice()
		if r.Err() != nil || r.ExpectEOF() != nil {
			return
		}
		if n.touch(from) {
			n.joined(from)
		}
		// Peer exchange: a third-party address we have never seen gets a
		// hello, so it learns us and we get its view. The sender itself is
		// never helloed back — it already knows us — which keeps the
		// exchange from ping-ponging forever. A listed address joins only
		// when a frame arrives from it, and one frame hellos at most
		// maxHellosPerFrame of them: what a list of made-up addresses costs
		// is bounded by the constant, not by the list.
		for _, addr := range n.unseen(from, list) {
			n.sendHello(addr)
		}
		if kind == kindHello {
			n.sendPeers(from)
		}
	case kindPing:
		if r.ExpectEOF() != nil {
			return
		}
		if n.touch(from) {
			n.joined(from)
		}
		n.send(from, kindPong, nil)
	case kindPong:
		if r.ExpectEOF() != nil {
			return
		}
		if n.touch(from) {
			n.joined(from)
		}
	}
}

// tick is the periodic probe: age every peer, evict the ones that missed
// too many probes, ping the rest, and re-hello any configured seed that has
// fallen out of the peer set.
func (n *Node) tick() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	var evicted, probe []string
	for addr, missed := range n.peers {
		if missed >= n.cfg.deadAfter() {
			delete(n.peers, addr)
			evicted = append(evicted, addr)
			continue
		}
		n.peers[addr] = missed + 1
		probe = append(probe, addr)
	}
	var reseed []string
	for _, s := range n.cfg.Seeds {
		if s == n.self {
			continue
		}
		if _, live := n.peers[s]; !live {
			reseed = append(reseed, s)
		}
	}
	n.probe.Reset(n.cfg.probeEvery())
	n.mu.Unlock()
	// Deterministic send order: the peer map's iteration order must not
	// leak into the wire (virtual-time runs replay identically).
	sort.Strings(evicted)
	sort.Strings(probe)
	for _, addr := range evicted {
		if n.cfg.OnLeave != nil {
			n.cfg.OnLeave(addr)
		}
	}
	for _, addr := range probe {
		n.send(addr, kindPing, nil)
	}
	for _, addr := range reseed {
		n.sendHello(addr)
	}
}

func (n *Node) joined(addr string) {
	if n.cfg.OnJoin != nil {
		n.cfg.OnJoin(addr)
	}
}

func (n *Node) sendHello(to string) {
	n.send(to, kindHello, n.Peers())
}

func (n *Node) sendPeers(to string) {
	n.send(to, kindPeers, n.Peers())
}

// send frames and transmits one cluster message. list is encoded for hello
// and peers frames; ping and pong carry none.
func (n *Node) send(to string, kind byte, list []string) {
	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	b.PutByte(kind)
	if kind == kindHello || kind == kindPeers {
		b.PutStringSlice(list)
	}
	_ = n.ep.Send(to, b.Bytes()) // best effort; Reliable retries, probes recur
}
