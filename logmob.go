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
// This package is the facade: it re-exports the public surface a downstream
// user needs. The implementation lives in internal/ packages; the runnable
// entry points are in examples/ and cmd/.
package logmob

import (
	"time"

	"logmob/internal/adapt"
	"logmob/internal/agent"
	"logmob/internal/cluster"
	"logmob/internal/core"
	"logmob/internal/ctxsvc"
	"logmob/internal/discovery"
	"logmob/internal/lmu"
	"logmob/internal/metrics"
	"logmob/internal/netsim"
	"logmob/internal/policy"
	"logmob/internal/registry"
	"logmob/internal/scenario"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/update"
	"logmob/internal/vm"
)

// Kernel types.
type (
	// Host is a device's middleware kernel.
	Host = core.Host
	// HostConfig assembles a Host.
	HostConfig = core.Config
	// ServiceFunc implements a Client/Server service.
	ServiceFunc = core.ServiceFunc
)

// NewHost builds a middleware kernel from cfg.
func NewHost(cfg HostConfig) (*Host, error) { return core.NewHost(cfg) }

// Logical Mobility Units.
type (
	// Unit is a Logical Mobility Unit: code + data + state + manifest.
	Unit = lmu.Unit
	// Manifest identifies and describes a Unit.
	Manifest = lmu.Manifest
	// UnitKind classifies a Unit.
	UnitKind = lmu.Kind
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

// Virtual machine.
type (
	// Program is mobile bytecode.
	Program = vm.Program
	// Machine executes a Program.
	Machine = vm.Machine
	// HostTable is the capability set granted to a Program.
	HostTable = vm.HostTable
)

// Assemble translates VM assembly into a Program.
func Assemble(src string) (*Program, error) { return vm.Assemble(src) }

// MustAssemble is Assemble panicking on error.
func MustAssemble(src string) *Program { return vm.MustAssemble(src) }

// Disassemble renders a Program as assembly.
func Disassemble(p *Program) string { return vm.Disassemble(p) }

// Security.
type (
	// Identity is a named signing keypair.
	Identity = security.Identity
	// TrustStore maps signer names to trusted keys.
	TrustStore = security.TrustStore
	// SecurityPolicy governs acceptance of foreign units.
	SecurityPolicy = security.Policy
)

// NewIdentity generates a fresh keypair.
func NewIdentity(name string) (*Identity, error) { return security.NewIdentity(name) }

// NewTrustStore returns an empty trust store.
func NewTrustStore() *TrustStore { return security.NewTrustStore() }

// VerifyUnit checks a unit's signature under a policy.
func VerifyUnit(u *Unit, trust *TrustStore, pol SecurityPolicy) error {
	return security.Verify(u, trust, pol)
}

// Registry.
type (
	// Registry is the quota-bounded local component store.
	Registry = registry.Registry
	// EvictionPolicy chooses eviction victims.
	EvictionPolicy = registry.EvictionPolicy
)

// NewRegistry returns a registry with the given quota (0 = unlimited).
func NewRegistry(quota int64, opts ...registry.Option) *Registry {
	return registry.New(quota, opts...)
}

// Agents.
type (
	// AgentPlatform hosts mobile agents on a Host.
	AgentPlatform = agent.Platform
	// AgentEnv configures the protected agent environment.
	AgentEnv = agent.Env
	// AgentRecord describes a finished agent.
	AgentRecord = agent.Record
)

// NewAgentPlatform attaches an agent runtime to a Host.
func NewAgentPlatform(h *Host, env AgentEnv) *AgentPlatform { return agent.NewPlatform(h, env) }

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
	// ServiceQuery matches advertisements.
	ServiceQuery = discovery.Query
	// LookupServer is a Jini-style centralised index.
	LookupServer = discovery.LookupServer
	// LookupClient talks to a LookupServer.
	LookupClient = discovery.LookupClient
	// Beacon is decentralised ad-hoc discovery.
	Beacon = discovery.Beacon
	// BeaconBatch coalesces beacons sharing an interval onto one scheduler
	// timer, broadcasting in canonical node order.
	BeaconBatch = discovery.BeaconBatch
)

// Context awareness.
type (
	// Context is a host's context service.
	Context = ctxsvc.Service
	// ContextKey names a context attribute.
	ContextKey = ctxsvc.Key
	// ContextValue is an attribute value.
	ContextValue = ctxsvc.Value
)

// Paradigm selection.
type (
	// Paradigm is one of CS, REV, COD, MA.
	Paradigm = policy.Paradigm
	// ParadigmTask describes an interaction for the cost model.
	ParadigmTask = policy.Task
	// ParadigmDecider chooses a paradigm from context.
	ParadigmDecider = policy.Decider
)

// The four paradigms.
const (
	CS  = policy.CS
	REV = policy.REV
	COD = policy.COD
	MA  = policy.MA
)

// Self-update.
type (
	// Updater keeps a host's components current via COD.
	Updater = update.Updater
)

// NewUpdater builds a self-updater checking every interval.
func NewUpdater(h *Host, finder discovery.Finder, sched transport.Scheduler, interval time.Duration) *Updater {
	return update.New(h, finder, sched, interval)
}

// AdvertiseComponents announces a host's published components for updaters
// to discover.
func AdvertiseComponents(h *Host, adv update.Advertiser, ttl time.Duration) int {
	return update.AdvertiseComponents(h, adv, ttl)
}

// Adaptive execution: the sense→decide→act loop.
type (
	// TaskRunner executes tasks under the paradigm a decider selects.
	TaskRunner = adapt.Runner
	// TaskSpec describes a task for adaptive execution.
	TaskSpec = adapt.TaskSpec
	// TaskOutcome reports how a task ran.
	TaskOutcome = adapt.Outcome
	// AdaptationEngine is a per-host adaptation engine: it re-selects the
	// paradigm per interaction and records the decision trajectory
	// (switches, model regret, history).
	AdaptationEngine = adapt.Engine
	// AdaptationDecision is one entry in an engine's trajectory.
	AdaptationDecision = adapt.Decision
	// AdaptiveDecider selects paradigms from live context with EWMA
	// smoothing, battery-aware energy weighting and switching hysteresis.
	AdaptiveDecider = policy.AdaptiveDecider
	// ParadigmObjective weights the decision score (bytes, latency,
	// monetary cost, energy).
	ParadigmObjective = policy.Objective
	// EWMA smooths a sensed numeric stream.
	EWMA = policy.EWMA
)

// NewTaskRunner builds an adaptive runner on h (nil decider = cost model).
func NewTaskRunner(h *Host, d ParadigmDecider) *TaskRunner { return adapt.NewRunner(h, d) }

// NewAdaptationEngine builds a per-host adaptation engine on h (nil
// decider = battery-aware adaptive decider over the default objective).
func NewAdaptationEngine(h *Host, d ParadigmDecider) *AdaptationEngine { return adapt.NewEngine(h, d) }

// DecideParadigm is the validating decision entry point: hostile task
// models and empty allowed sets error instead of panicking, and the choice
// is clamped to the allowed set.
func DecideParadigm(d ParadigmDecider, t ParadigmTask, allowed []Paradigm, ctx *Context) (Paradigm, error) {
	return policy.Decide(d, t, allowed, ctx)
}

// DecodeTaskArgs is the service-side inverse of the adaptive runner's CS
// argument encoding; EncodeTaskReplies is the inverse of its reply
// decoding. Services meant to interoperate with adaptive clients use both.
func DecodeTaskArgs(frames [][]byte) []int64 { return adapt.DecodeArgs(frames) }

// EncodeTaskReplies encodes service replies for adaptive CS clients.
func EncodeTaskReplies(values []int64) [][]byte { return adapt.EncodeReplies(values) }

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

// ListenTCP starts a real-TCP endpoint (for daemons; the simulator is the
// default substrate for experiments).
func ListenTCP(addr string) (*transport.TCPEndpoint, error) { return transport.ListenTCP(addr) }

// NewWallScheduler returns a wall-clock scheduler for real-TCP hosts.
func NewWallScheduler() *transport.WallScheduler { return transport.NewWallScheduler() }

// Real-wire cluster mode: N daemons on real sockets discover each other
// through seed nodes, keep a live peer set with probing and eviction, and
// heal when members restart. Scenario workloads replay against the live
// members with the same metrics tables as simulated runs.
type (
	// ClusterNode is one member of a bootstrapped daemon cluster.
	ClusterNode = cluster.Node
	// ClusterConfig tunes seeds, probing and eviction.
	ClusterConfig = cluster.Config
	// ClusterStats counts membership activity.
	ClusterStats = cluster.Stats
	// TCPUsage snapshots a TCP endpoint's traffic counters.
	TCPUsage = transport.TCPUsage
	// LiveReplay drives scenario workloads against a running cluster.
	LiveReplay = scenario.Live
	// LiveReplayResult is the outcome of one live replay.
	LiveReplayResult = scenario.LiveResult
	// LiveReplayRow is one workload's live outcome.
	LiveReplayRow = scenario.LiveRow
)

// ChanCluster is the mux channel the membership protocol rides on.
const ChanCluster = transport.ChanCluster

// SinkServiceName names the echo service live daemons register so Calls
// workloads have a fixed landing pad (see NewSinkService).
const SinkServiceName = scenario.SinkServiceName

// JoinCluster starts a cluster member on ch (conventionally the host mux's
// ChanCluster channel) and bootstraps through cfg.Seeds.
func JoinCluster(ch transport.Endpoint, sched transport.Scheduler, cfg ClusterConfig) *ClusterNode {
	return cluster.Join(ch, sched, cfg)
}

// NewSinkService returns the well-known echo service a live daemon
// registers under SinkServiceName.
func NewSinkService() core.ServiceFunc { return scenario.SinkService() }

// NewLiveReplay returns a driver replaying workloads from client against
// the given cluster member addresses.
func NewLiveReplay(client *Host, members []string) *LiveReplay {
	return scenario.NewLive(client, members)
}

// Mobility models for simulated populations.
type (
	// MobilityModel moves simulated nodes.
	MobilityModel = netsim.MobilityModel
	// RandomWaypoint is the classic pick-a-point-and-walk model.
	RandomWaypoint = netsim.RandomWaypoint
	// Waypath walks a fixed polyline.
	Waypath = netsim.Waypath
)

// Adversity layer: deterministic fault injection. Every fault decision
// draws from a dedicated seeded RNG, so faulty runs are exactly
// reproducible — and bit-identical at any worker count — while zero-valued
// fault configuration is provably inert.
type (
	// Impairment degrades a simulated link: extra drop probability,
	// tick-quantised latency jitter, bandwidth degradation.
	Impairment = netsim.Impairment
	// ChurnSchedule crashes/rejoins and duty-cycles simulated nodes.
	ChurnSchedule = netsim.ChurnSchedule
	// Churn is a running ChurnSchedule (see Network.StartChurn).
	Churn = netsim.Churn
	// FaultStats counts impairment drops and jitter on a Network.
	FaultStats = netsim.FaultStats
	// ReliableEndpoint adds budgeted ack/retry to any transport Endpoint.
	ReliableEndpoint = transport.Reliable
	// ReliableConfig tunes the ack/retry layer.
	ReliableConfig = transport.ReliableConfig
	// ReliableStats counts ack/retry outcomes.
	ReliableStats = transport.ReliableStats
	// ScenarioFaults is a Scenario's declarative fault block: link
	// impairments, churn, timed partitions, ack/retry, beacon-miss
	// eviction.
	ScenarioFaults = scenario.Faults
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

// NewReliableEndpoint wraps ep in a budgeted ack/retry layer scheduled on
// sched. Both ends of a conversation must be wrapped.
func NewReliableEndpoint(ep transport.Endpoint, sched transport.Scheduler, cfg ReliableConfig) *ReliableEndpoint {
	return transport.NewReliable(ep, sched, cfg)
}

// Scenario API: declarative worlds, replication and sweeps.
//
// A Scenario describes a simulated deployment — field, node populations
// (placement, link class, mobility, host configuration), workloads across
// the four paradigms, probes and duration — and compiles into a World.
// RunSpec executes it for one seed; a ScenarioRunner replicates it across
// seeds, optionally in parallel, and aggregates the result tables into
// mean±stddev summaries.
type (
	// Scenario is a declarative experiment specification.
	Scenario = scenario.Spec
	// ScenarioField is the world's field in metres.
	ScenarioField = scenario.Field
	// Population declares one group of like-configured nodes.
	Population = scenario.Population
	// World is a compiled scenario: hosts, platforms, beacons, network.
	World = scenario.World
	// ScenarioWorkload is one unit of activity started after warmup.
	ScenarioWorkload = scenario.Workload
	// ScenarioProbe contributes rows to the scenario's summary table.
	ScenarioProbe = scenario.Probe
	// ScenarioResult is the rendered output of a scenario or experiment.
	ScenarioResult = scenario.Result
	// ScenarioRunner replicates a run function across seeds.
	ScenarioRunner = scenario.Runner
	// MultiResult is a replicated run: per-seed results plus the aggregate.
	MultiResult = scenario.MultiResult
	// Placement positions a population's members.
	Placement = scenario.Placement
	// PlaceUniform scatters members uniformly over the field.
	PlaceUniform = scenario.PlaceUniform
	// PlacePoints places members at fixed positions.
	PlacePoints = scenario.PlacePoints
	// Table is an aligned result table.
	Table = metrics.Table
)

// Workloads spanning the four paradigms, plus the escape hatch.
type (
	// CallsWorkload runs Client/Server request/reply rounds.
	CallsWorkload = scenario.Calls
	// EvalWorkload ships code once for Remote Evaluation.
	EvalWorkload = scenario.EvalOnce
	// FetchRunWorkload fetches a component once and runs it locally (COD).
	FetchRunWorkload = scenario.FetchRun
	// AgentWorkload launches one mobile agent.
	AgentWorkload = scenario.SpawnAgent
	// CourierWorkload launches a store-carry-forward courier fleet.
	CourierWorkload = scenario.Couriers
	// FetchWaveWorkload rolls a component out to a whole population (COD
	// at city scale): each member fetches from the nearest server as it
	// roams into range, retrying until it succeeds.
	FetchWaveWorkload = scenario.FetchWave
	// AdaptiveWorkload runs a continuous task stream through per-client
	// adaptation engines, re-selecting the paradigm per interaction from
	// live sensed context (or pinned to one paradigm as a control group).
	AdaptiveWorkload = scenario.Adaptive
	// AdaptiveWorkloadStats records an AdaptiveWorkload's outcomes.
	AdaptiveWorkloadStats = scenario.AdaptiveStats
	// WorkloadFunc adapts a function to a ScenarioWorkload.
	WorkloadFunc = scenario.Func
)

// ScenarioSense is a Scenario's live context-sensing block: link state,
// retry accounting, battery and neighborhood sampled into each host's
// context service at a fixed tick. The zero value is inert.
type ScenarioSense = scenario.Sense

// ComputeRefIPS is the reference CPU speed (VM instructions per second)
// that ParadigmTask.ComputeUnits are measured against; a host with
// HostConfig.ComputeRate == ComputeRefIPS is a 1.0-factor machine.
const ComputeRefIPS = scenario.ComputeRefIPS

// Built-in probes.
type (
	// MeanNeighborsProbe reports mean radio-neighbor counts.
	MeanNeighborsProbe = scenario.MeanNeighbors
	// CoverageProbe reports discovery coverage of a service.
	CoverageProbe = scenario.Coverage
	// BeaconTrafficProbe reports beacon broadcast/reception totals.
	BeaconTrafficProbe = scenario.BeaconTraffic
	// AgentHopsProbe reports agent migration totals.
	AgentHopsProbe = scenario.AgentHops
	// DeliveriesProbe reports courier delivery statistics.
	DeliveriesProbe = scenario.Deliveries
	// FetchesProbe reports FetchWaveWorkload rollout progress.
	FetchesProbe = scenario.Fetches
	// NetTrafficProbe reports whole-network traffic totals.
	NetTrafficProbe = scenario.NetTraffic
	// DecisionsProbe reports an AdaptiveWorkload's trajectory: completions
	// per paradigm, decision share over time, switches, regret, battery
	// survival.
	DecisionsProbe = scenario.Decisions
	// ProbeFunc adapts a function to a ScenarioProbe.
	ProbeFunc = scenario.ProbeFunc
)

// GreedyCourierProgram is the greedy-geographic store-carry-forward courier
// used by CourierWorkload by default; platforms carrying it need
// GreedyGeoCaps (set Population.ExtraCaps = logmob.GreedyGeoCaps).
var GreedyCourierProgram = scenario.GreedyCourierProgram

// GreedyGeoCaps provides the geo_pick_greedy capability GreedyCourierProgram
// requires.
func GreedyGeoCaps(w *World) func(*AgentPlatform, *Unit) []vm.HostFunc {
	return scenario.GreedyGeoCaps(w)
}

// NewWorld returns an empty deterministic simulated world for a seed, for
// imperative construction with World.AddHost.
func NewWorld(seed int64) *World { return scenario.NewWorld(seed) }

// SetDefaultWorkers sizes the tick worker pool newly built worlds inherit:
// 1 keeps the serial engine, values above 1 shard each world's mobility and
// neighbor recomputation across that many workers, 0 or negative selects
// GOMAXPROCS. Per-seed results are bit-identical at any setting — workers
// only change wall-clock. A Scenario can override per-spec via its Workers
// field.
func SetDefaultWorkers(w int) { scenario.SetDefaultWorkers(w) }

// RunSpec compiles and runs a scenario for one seed, returning the compiled
// world (for ad-hoc measurement) and the probe summary table (nil without
// probes).
func RunSpec(s *Scenario, seed int64) (*World, *Table) { return s.Run(seed) }

// RunSeeds replicates a run function across n seeds starting at base,
// parallel at a time, and aggregates the per-seed tables.
func RunSeeds(base int64, n, parallel int, fn func(seed int64) *ScenarioResult) *MultiResult {
	return ScenarioRunner{Seeds: scenario.Seeds(base, n), Parallel: parallel}.Run(fn)
}

// NewResultTable creates an empty result table with the given column
// headers, for custom probes and workload reports.
func NewResultTable(title string, headers ...string) *Table {
	return metrics.NewTable(title, headers...)
}

// AggregateTables combines replicate tables of identical shape into one
// mean±stddev summary table.
func AggregateTables(tables []*Table) (*Table, error) { return metrics.AggregateTables(tables) }
