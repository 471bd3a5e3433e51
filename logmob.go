// Package logmob is a mobile computing middleware built around logical
// mobility, reproducing "Exploiting Logical Mobility in Mobile Computing
// Middleware" (Zachariadis, Mascolo, Emmerich; ICDCS 2002 Workshops).
//
// The middleware gives every device a Host: a protected runtime offering the
// four mobile-code paradigms of Fuggetta, Picco and Vigna —
//
//   - Client/Server: Host.RegisterService / Host.Call
//   - Remote Evaluation: Host.Eval
//   - Code On Demand: Host.Publish / Host.Fetch / Host.RunComponent
//   - Mobile Agents: agent.Platform over Host.SendAgent
//
// Mobile code is bytecode for the built-in VM (Go cannot load code at run
// time, so code really is data here: assembled, signed, shipped, verified,
// executed, snapshotted mid-run and resumed elsewhere). Units of movement
// are Logical Mobility Units: code + data + execution state + manifest +
// signature.
//
// The same kernel runs over two transports: a deterministic discrete-event
// wireless simulator (ad-hoc, WLAN, GPRS and LAN link classes with radio
// range, mobility, loss, per-byte cost and energy) and real TCP. Context
// awareness, service discovery (Jini-style centralised lookup and
// decentralised beaconing), a quota-bounded component registry with
// eviction, ed25519 code signing, and a paradigm-selection policy engine
// complete the system.
//
// This package is the facade: it re-exports exactly the names something
// under examples/, cmd/, bench/ or the root tests imports, and
// TestFacadeExportsOnlyWhatIsImported fails when one falls idle. An alias is
// transparent, so a value whose type is not named here (the *scenario.World
// RunSpec returns, a Host's Registry) is still fully usable. The
// implementation lives in internal/ packages; the runnable entry points are
// in examples/ and cmd/.
package logmob

import (
	"logmob/internal/agent"
	"logmob/internal/core"
	"logmob/internal/discovery"
	"logmob/internal/lmu"
	"logmob/internal/metrics"
	"logmob/internal/netsim"
	"logmob/internal/policy"
	"logmob/internal/registry"
	"logmob/internal/scenario"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

// Kernel types.
type (
	// Host is a device's middleware kernel.
	Host = core.Host
	// HostConfig assembles a Host.
	HostConfig = core.Config
)

// NewHost builds a middleware kernel from cfg.
func NewHost(cfg HostConfig) (*Host, error) { return core.NewHost(cfg) }

// Logical Mobility Units.
type (
	// Unit is a Logical Mobility Unit: code + data + state + manifest.
	Unit = lmu.Unit
	// Manifest identifies and describes a Unit.
	Manifest = lmu.Manifest
)

// Unit kinds.
const (
	KindComponent = lmu.KindComponent
	KindAgent     = lmu.KindAgent
	KindRequest   = lmu.KindRequest
	KindData      = lmu.KindData
)

// UnpackUnit parses a packed unit.
func UnpackUnit(data []byte) (*Unit, error) { return lmu.Unpack(data) }

// Assemble translates VM assembly into a program (mobile bytecode).
func Assemble(src string) (*vm.Program, error) { return vm.Assemble(src) }

// MustAssemble is Assemble panicking on error.
func MustAssemble(src string) *vm.Program { return vm.MustAssemble(src) }

// Disassemble renders a program as assembly.
func Disassemble(p *vm.Program) string { return vm.Disassemble(p) }

// Security.
type (
	// Identity is a named signing keypair.
	Identity = security.Identity
	// TrustStore maps signer names to trusted keys.
	TrustStore = security.TrustStore
)

// NewIdentity generates a fresh keypair.
func NewIdentity(name string) (*Identity, error) { return security.NewIdentity(name) }

// NewTrustStore returns an empty trust store.
func NewTrustStore() *TrustStore { return security.NewTrustStore() }

// NewRegistry returns a quota-bounded component store (0 = unlimited).
func NewRegistry(quota int64, opts ...registry.Option) *registry.Registry {
	return registry.New(quota, opts...)
}

// Agents.
type (
	// AgentPlatform hosts mobile agents on a Host.
	AgentPlatform = agent.Platform
	// AgentEnv configures the protected agent environment.
	AgentEnv = agent.Env
	// AgentRecord describes a finished agent. Its Unit is lent for the
	// AgentEnv.OnDone call only: a unit that arrived is recycled once the
	// hook returns, so a hook that keeps the record reads the unit there
	// and keeps what it read (Name names the unit).
	AgentRecord = agent.Record
)

// NewAgentPlatform attaches an agent runtime to a Host.
func NewAgentPlatform(h *Host, env AgentEnv) *AgentPlatform { return agent.NewPlatform(h, env) }

// NewAgentCaps builds the capability table for AgentEnv.Caps: the standard
// agent set plus the deployment's extras. Build it once and share it across
// platforms; an extra finds the platform and unit it runs for through
// agent.Current, never through what it captured.
func NewAgentCaps(extra ...vm.HostFunc) *vm.HostTable { return agent.NewCaps(extra...) }

// CourierProgram is the stock store-carry-forward courier agent: it hops
// toward its destination (the destination if adjacent, else a random
// neighbor, carrying when isolated) and delivers its payload under its
// topic.
var CourierProgram = agent.CourierProgram

// NewCourierData builds the data space for a courier carrying payload to
// dest, delivered under topic.
func NewCourierData(dest, topic string, payload []byte) map[string][]byte {
	return agent.NewCourierData(dest, topic, payload)
}

// Discovery.
type (
	// ServiceAd advertises a service.
	ServiceAd = discovery.Ad
	// Beacon is decentralised ad-hoc discovery.
	Beacon = discovery.Beacon
)

// Paradigm selection.
type (
	// ParadigmTask describes an interaction for the cost model.
	ParadigmTask = policy.Task
	// ParadigmObjective weights the decision score (bytes, latency,
	// monetary cost, energy).
	ParadigmObjective = policy.Objective
)

// The four paradigms.
const (
	CS  = policy.CS
	REV = policy.REV
	COD = policy.COD
	MA  = policy.MA
)

// Simulation substrate.
type (
	// Sim is the discrete-event scheduler.
	Sim = netsim.Sim
	// SimNetwork adapts a simulated network to transport endpoints.
	SimNetwork = transport.SimNetwork
	// Network is the simulated wireless field.
	Network = netsim.Network
	// Position is a point on the field.
	Position = netsim.Position
	// LinkClass describes a physical layer.
	LinkClass = netsim.LinkClass
	// RandomWaypoint is the classic pick-a-point-and-walk mobility model.
	RandomWaypoint = netsim.RandomWaypoint
)

// Predefined link classes.
var (
	AdHoc = netsim.AdHoc
	WLAN  = netsim.WLAN
	GPRS  = netsim.GPRS
	LAN   = netsim.LAN
)

// NewSim returns a deterministic simulator for the given seed. Its event
// queue is a hashed hierarchical timing wheel.
func NewSim(seed int64) *Sim { return netsim.NewSim(seed) }

// NewNetwork returns an empty simulated network driven by sim.
func NewNetwork(sim *Sim) *Network { return netsim.NewNetwork(sim) }

// NewSimNetwork adapts net for transport endpoints.
func NewSimNetwork(net *Network) *SimNetwork { return transport.NewSimNetwork(net) }

// Adversity layer: deterministic fault injection. Every fault decision
// draws from a dedicated seeded RNG, so faulty runs are exactly
// reproducible — and bit-identical at any worker count — while zero-valued
// fault configuration is provably inert.
type (
	// ScenarioFaults is a Scenario's declarative fault block: link
	// impairments, churn, timed partitions, ack/retry, beacon-miss
	// eviction.
	ScenarioFaults = scenario.Faults
	// Impairment is the one degraded-link description — extra drop
	// probability, tick-quantised jitter, bandwidth factor — embedded by
	// ScenarioFaults, LinkFault and FaultEvent.
	Impairment = netsim.Impairment
	// ChurnSchedule is the crash/rejoin and duty-cycle schedule a ChurnFault
	// runs over its population.
	ChurnSchedule = netsim.ChurnSchedule
	// LinkFault impairs one population's links.
	LinkFault = scenario.LinkFault
	// ChurnFault churns one population.
	ChurnFault = scenario.ChurnFault
	// PartitionFault is a timed split-then-heal event.
	PartitionFault = scenario.PartitionFault
	// FaultEvent rewrites the world-wide impairment mid-run.
	FaultEvent = scenario.FaultEvent
	// RetryFault enables the ack/retry transport layer in a Scenario.
	RetryFault = scenario.RetryFault
	// ReliabilityProbe reports delivery ratio, retries and repair times.
	ReliabilityProbe = scenario.Reliability
)

// Scenario API: declarative worlds, replication and sweeps.
//
// A Scenario describes a simulated deployment — field, node populations
// (placement, link class, mobility, host configuration), workloads across
// the four paradigms, probes and duration — and compiles into a World.
// RunSpec executes it for one seed; RunSeeds replicates it across seeds,
// optionally in parallel, and aggregates the result tables into mean±stddev
// summaries.
type (
	// Scenario is a declarative experiment specification.
	Scenario = scenario.Spec
	// ScenarioField is the world's field in metres.
	ScenarioField = scenario.Field
	// Population declares one group of like-configured nodes.
	Population = scenario.Population
	// ScenarioWorkload is one unit of activity started after warmup.
	ScenarioWorkload = scenario.Workload
	// ScenarioProbe contributes rows to the scenario's summary table.
	ScenarioProbe = scenario.Probe
	// ScenarioResult is the rendered output of a scenario or experiment.
	ScenarioResult = scenario.Result
	// MultiResult is a replicated run: per-seed results plus the aggregate.
	MultiResult = scenario.MultiResult
	// PlaceUniform scatters members uniformly over the field.
	PlaceUniform = scenario.PlaceUniform
	// PlacePoints places members at fixed positions.
	PlacePoints = scenario.PlacePoints
	// Table is an aligned result table.
	Table = metrics.Table
)

// Workloads.
type (
	// CourierWorkload launches a store-carry-forward courier fleet. A
	// *CourierWorkload is also the probe that reports its deliveries.
	CourierWorkload = scenario.Couriers
	// AdaptiveWorkload runs a continuous task stream through per-client
	// adaptation engines, re-selecting the paradigm per interaction from
	// live sensed context (or pinned to one paradigm as a control group).
	// An *AdaptiveWorkload is also the probe that reports its trajectory:
	// completions per paradigm, decision share over time, switches, regret,
	// battery survival.
	AdaptiveWorkload = scenario.Adaptive
)

// ScenarioSense is a Scenario's live context-sensing block: link state,
// retry accounting, battery and neighborhood sampled into each host's
// context service at a fixed tick. The zero value is inert.
type ScenarioSense = scenario.Sense

// Built-in probes.
type (
	// MeanNeighborsProbe reports mean radio-neighbor counts.
	MeanNeighborsProbe = scenario.MeanNeighbors
	// CoverageProbe reports discovery coverage of a service.
	CoverageProbe = scenario.Coverage
	// BeaconTrafficProbe reports beacon broadcast/reception totals.
	BeaconTrafficProbe = scenario.BeaconTraffic
	// AgentHopsProbe reports courier (agent) migration totals.
	AgentHopsProbe = scenario.AgentHops
	// NetTrafficProbe reports whole-network traffic totals.
	NetTrafficProbe = scenario.NetTraffic
)

// GreedyGeoCaps provides the geo_pick_greedy capability the couriers of a
// CourierWorkload require (set Population.ExtraCaps = logmob.GreedyGeoCaps).
func GreedyGeoCaps(w *scenario.World) []vm.HostFunc { return scenario.GreedyGeoCaps(w) }

// RunSpec compiles and runs a scenario for one seed, returning the compiled
// world (for ad-hoc measurement) and the probe summary table (nil without
// probes).
func RunSpec(s *Scenario, seed int64) (*scenario.World, *Table) { return s.Run(seed) }

// RunSeeds replicates a run function across n seeds starting at base,
// parallel at a time, and aggregates the per-seed tables.
func RunSeeds(base int64, n, parallel int, fn func(seed int64) *ScenarioResult) *MultiResult {
	return scenario.RunSeeds(base, n, parallel, fn)
}

// NewResultTable creates an empty result table with the given column
// headers, for custom probes and workload reports.
func NewResultTable(title string, headers ...string) *Table {
	return metrics.NewTable(title, headers...)
}

// AggregateTables combines replicate tables of identical shape into one
// mean±stddev summary table.
func AggregateTables(tables []*Table) (*Table, error) { return metrics.AggregateTables(tables) }
