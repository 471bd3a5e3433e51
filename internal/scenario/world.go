// Package scenario is logmob's declarative experiment surface: a Spec
// describes a simulated world — field, node populations with placement,
// mobility and link class, host configuration, workloads spanning the four
// mobile-code paradigms, and probes — and compiles into a World, the public
// replacement for the experiment harness's former private environment.
//
// RunSeeds executes a Spec (or any seed-parameterised run function) across
// many seeds, optionally in parallel with one Sim per seed, and aggregates
// the replicate tables into mean±stddev summaries. Parameter sweeps are
// plain data: rebuild the Spec per value of the swept axis.
package scenario

import (
	"fmt"

	"logmob/internal/agent"
	"logmob/internal/core"
	"logmob/internal/discovery"
	"logmob/internal/netsim"
	"logmob/internal/security"
	"logmob/internal/transport"
)

// World is the compiled runtime of a Spec: a deterministic simulated
// environment with hosts, agent platforms and beacons, ready to run
// workloads. Experiments may also build one imperatively with NewWorld and
// AddHost.
type World struct {
	// Field is the world's field dimensions (zero for point worlds).
	Field Field
	// Sim drives the virtual clock.
	Sim *netsim.Sim
	// Net is the simulated wireless field.
	Net *netsim.Network
	// Transport adapts Net to kernel endpoints.
	Transport *transport.SimNetwork
	// ID is the world's publishing identity, pre-trusted by every host.
	ID *security.Identity
	// Trust is the trust store shared by every host.
	Trust *security.TrustStore
	// Hosts maps node name to its kernel host.
	Hosts map[string]*core.Host
	// Platforms maps node name to its agent platform, for populations (or
	// hosts) that enable agents.
	Platforms map[string]*agent.Platform
	// Beacons maps node name to its discovery beacon, for populations that
	// enable beaconing.
	Beacons map[string]*discovery.Beacon
	// Pops maps population name to its node names in creation order.
	Pops map[string][]string
	// Records collects every agent that finished on a compiled population's
	// platform, in completion order. A record's Unit is nil: the platform
	// lends it only for the OnDone call.
	Records []agent.Record
	// Reliables maps node name to its ack/retry transport layer, for
	// worlds compiled with Faults.Retry enabled.
	Reliables map[string]*transport.Reliable
	// Churns holds the running churn schedules, one per Faults.Churn entry
	// in declaration order; their Stats feed the Reliability probe.
	Churns []*netsim.Churn

	// retry is the spec's Faults.Retry, set before any host is built;
	// Budget > 0 means every endpoint is wrapped.
	retry transport.ReliableConfig
}

// NewWorld returns an empty deterministic world for the given seed: a
// simulator, a network, a transport adapter, and a trusted "publisher"
// identity.
func NewWorld(seed int64) *World {
	s := netsim.NewSim(seed)
	n := netsim.NewNetwork(s)
	n.SetWorkers(DefaultWorkers())
	id := security.MustNewIdentity("publisher")
	trust := security.NewTrustStore()
	trust.TrustIdentity(id)
	return &World{
		Sim:       s,
		Net:       n,
		Transport: transport.NewSimNetwork(n),
		ID:        id,
		Trust:     trust,
		Hosts:     make(map[string]*core.Host),
		Platforms: make(map[string]*agent.Platform),
		Beacons:   make(map[string]*discovery.Beacon),
		Pops:      make(map[string][]string),
	}
}

// AddHost creates a kernel host on a new node. Loss is disabled unless the
// caller re-enables it via mutate; experiments about loss set it explicitly
// (or declare a Faults block). In worlds compiled with Faults.Retry, the
// endpoint is wrapped in an ack/retry layer recorded in Reliables.
func (w *World) AddHost(name string, pos netsim.Position, class netsim.LinkClass, mutate func(*core.Config)) *core.Host {
	class.Loss = 0
	w.Net.AddNode(name, pos, class)
	ep, err := w.Transport.Endpoint(name)
	if err != nil {
		panic(err) // nodes are added by the experiment itself; a clash is a bug
	}
	if w.retry.Budget > 0 {
		rel := transport.NewReliable(ep, w.Sim, w.retry)
		if w.Reliables == nil {
			w.Reliables = make(map[string]*transport.Reliable)
		}
		w.Reliables[name] = rel
		ep = rel
	}
	cfg := core.Config{
		Name: name, Endpoint: ep, Scheduler: w.Sim,
		Trust: w.Trust, ServeEval: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h, err := core.NewHost(cfg)
	if err != nil {
		panic(err)
	}
	w.Hosts[name] = h
	return h
}

// keepRecord is a compiled platform's OnDone: it keeps r without the unit
// the platform lent for the call.
func (w *World) keepRecord(r agent.Record) {
	r.Unit = nil
	w.Records = append(w.Records, r)
}

// LastRecord returns the most recent finished-agent record whose unit name
// matches, and whether one exists.
func (w *World) LastRecord(unitName string) (agent.Record, bool) {
	for i := len(w.Records) - 1; i >= 0; i-- {
		if r := w.Records[i]; r.Name == unitName {
			return r, true
		}
	}
	return agent.Record{}, false
}

// nodeName names the i-th member of a population.
func (p *Population) nodeName(i int) string {
	if p.NameOf != nil {
		return p.NameOf(i)
	}
	if p.Count <= 1 {
		return p.Name
	}
	return fmt.Sprintf("%s%d", p.Name, i)
}
