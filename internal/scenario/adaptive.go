package scenario

import (
	"fmt"
	"hash/fnv"
	"time"

	"logmob/internal/adapt"
	"logmob/internal/agent"
	"logmob/internal/ctxsvc"
	"logmob/internal/lmu"
	"logmob/internal/metrics"
	"logmob/internal/policy"
	"logmob/internal/vm"
)

// This file is the act-and-measure half of the adaptation loop: the
// Adaptive workload runs a continuous task stream through a per-client
// adapt.Engine, re-selecting CS/REV/COD/MA before every interaction from
// the context the Sense layer keeps live, and, as its own probe, renders
// the resulting trajectory. Pinning Fixed turns the same workload into a
// fixed-paradigm control group, so an experiment can race the adaptive
// engine against all four paradigms over identical task streams.

// ComputeRefIPS is the reference CPU speed the task model's ComputeUnits
// are measured against: a host with Config.ComputeRate == ComputeRefIPS is
// a 1.0-factor machine. Experiments set ComputeRate = factor*ComputeRefIPS.
const ComputeRefIPS = 10000.0

// adaptiveLoopSteps is the VM cost of one iteration of the padded unit's
// busy loop (load/jz/load/push/sub/store/jmp).
const adaptiveLoopSteps = 7

// Adaptive is the adaptation-loop workload: every member of Pop runs an
// endless stream of identical tasks against its nearest ServerPop member,
// each task executed under whichever paradigm the client's adaptation
// engine selects from live context — or under Fixed, for control groups.
type Adaptive struct {
	// Pop is the client population; ServerPop hosts the service, the
	// published code and the agent dock. Each client binds to its nearest
	// server at workload start.
	Pop, ServerPop string
	// Model is the task the stream repeats: sizes and rounds feed both the
	// decision and the execution (ReqBytes/ReplyBytes shape the CS frames,
	// CodeBytes pads the shipped unit, StateBytes pads the agent payload,
	// ComputeUnits sizes the busy-loop the code runs).
	Model policy.Task
	// Mix, when non-empty, replaces Model with a rotating application mix:
	// task seq runs Mix[(seq-1) % len(Mix)]. A mix is where per-interaction
	// re-selection earns its keep — no fixed paradigm fits every shape.
	Mix []policy.Task
	// Gap is the pause between a task ending and the next starting
	// (default 2s); Deadline is the per-task watchdog that declares an
	// unresponsive task failed and moves on (default 45s).
	Gap, Deadline time.Duration
	// Fixed pins every task to one paradigm (a control group); 0 adapts.
	Fixed policy.Paradigm
	// Objective, Hysteresis and BatteryAware configure each client's
	// AdaptiveDecider (zero Objective = bytes+latency+energy default).
	// Ignored when Fixed is set.
	Objective    policy.Objective
	Hysteresis   float64
	BatteryAware bool
	// Label names the stream in its probe rows; default Pop.
	Label string

	// Stats is filled in while the scenario runs; list the same *Adaptive
	// in Spec.Probes to report it (fields are only read after the run).
	Stats AdaptiveStats

	engines   []*adapt.Engine
	clients   []string
	workProgs map[int64]*vm.Program
}

// AdaptiveStats records the stream's outcomes for probes.
type AdaptiveStats struct {
	// Start is the virtual time the stream launched, in seconds.
	Start float64
	// Clients is the streaming population size.
	Clients int
	// Started, Completed and Failed count tasks.
	Started, Completed, Failed int64
	// ByParadigm counts completed tasks per executed paradigm.
	ByParadigm map[policy.Paradigm]int64
	// Completion observes per-task completion times in seconds.
	Completion metrics.Series
}

// service names the stream's CS echo service, registered by the workload
// on every server. It is scoped by the stream label: several Adaptive
// streams can share a ServerPop (Host.RegisterService silently replaces
// handlers, so unscoped names would cross-wire their reply sizes).
func (a *Adaptive) service() string { return "adaptive/" + a.label() + "/echo" }

func (a *Adaptive) gap() time.Duration {
	if a.Gap > 0 {
		return a.Gap
	}
	return 2 * time.Second
}

func (a *Adaptive) deadline() time.Duration {
	if a.Deadline > 0 {
		return a.Deadline
	}
	return 45 * time.Second
}

func (a *Adaptive) label() string {
	if a.Label != "" {
		return a.Label
	}
	return a.Pop
}

// objective returns the decider objective: the configured one, or a
// default that trades bytes, latency and energy.
func (a *Adaptive) objective() policy.Objective {
	if a.Objective != (policy.Objective{}) {
		return a.Objective
	}
	return policy.Objective{BytesWeight: 1, LatencyWeight: 120, EnergyWeight: 0.3}
}

// modelFor returns the task model of the seq-th task (1-based).
func (a *Adaptive) modelFor(seq int64) policy.Task {
	if len(a.Mix) > 0 {
		return a.Mix[(seq-1)%int64(len(a.Mix))]
	}
	return a.Model
}

// buildUnit builds a task's shipped component: a busy loop of the model's
// compute cost padded to ~CodeBytes with an opaque data blob. The unit is
// unsigned — adaptive crowds run AllowUnsigned, like couriers.
func (a *Adaptive) buildUnit(model policy.Task, name, version string) *lmu.Unit {
	rounds := model.Interactions
	if rounds < 1 {
		rounds = 1
	}
	u := &lmu.Unit{
		Manifest: lmu.Manifest{Name: name, Version: version, Kind: lmu.KindComponent},
		Code:     a.workProgram(rounds).Encode(),
	}
	if pad := int(model.CodeBytes) - len(u.Code) - 64; pad > 0 {
		u.Data = map[string][]byte{"pad": make([]byte, pad)}
	}
	return u
}

// workProgram assembles (and caches, per rounds value) the work unit: the
// "main" entry burns one round's share of the task's compute, the "all"
// entry burns the whole task — COD runs "main" once per round locally,
// REV evaluates "all" remotely once, so both execute the same total.
func (a *Adaptive) workProgram(rounds int64) *vm.Program {
	if a.workProgs == nil {
		a.workProgs = make(map[int64]*vm.Program)
	}
	if p := a.workProgs[rounds]; p != nil {
		return p
	}
	p := vm.MustAssemble(fmt.Sprintf(adaptiveWorkSource, rounds))
	a.workProgs[rounds] = p
	return p
}

// adaptiveIterations converts a model's compute cost to busy-loop
// iterations per interaction round: ComputeUnits is the task's TOTAL
// computation, so each of the model's rounds burns its share.
func adaptiveIterations(model policy.Task) int64 {
	rounds := model.Interactions
	if rounds < 1 {
		rounds = 1
	}
	return int64(model.ComputeUnits * ComputeRefIPS / adaptiveLoopSteps / float64(rounds))
}

// adaptiveArgs synthesises the per-round argument frames: enough 8-byte
// values to approximate ReqBytes on the wire, with the loop count on top
// of the stack (the last argument) where the work program expects it.
func adaptiveArgs(model policy.Task) []int64 {
	n := int(model.ReqBytes / 8)
	if n < 1 {
		n = 1
	}
	args := make([]int64, n)
	args[n-1] = adaptiveIterations(model)
	return args
}

// adaptiveWorkSource burns its argument in a counted loop and halts with
// a recognisable result — the unit of work every paradigm must perform.
// "main" burns the argument as-is (one round's share); "all" multiplies it
// by the task's round count first (the %d), performing the whole task in
// one remote evaluation.
const adaptiveWorkSource = `
.entry main
.entry all
all:
	push %d
	mul
main:
	store 0
loop:
	load 0
	jz done
	load 0
	push 1
	sub
	store 0
	jmp loop
done:
	push 42
	halt
`

// maAgentBody is the Mobile Agent execution of the task: carry the state
// out to the server (itinerary slot 0), "compute" there for the modelled
// time (global 0, milliseconds, set by the per-client entry preamble),
// carry the result home (slot 1) and deliver it under the task's topic.
// Failed migrations store-carry-retry (global 1 counts attempts per leg),
// so the agent rides out churn and partitions the request/reply paradigms
// time out under — but a leg that stays dead past the retry budget makes
// the agent give up and halt, so tasks the workload's watchdog abandoned
// do not leak immortal agents that wake every two seconds forever.
const maAgentBody = `
out:
	push 0
	host a_itin_select
	pop
	host a_migrate
	jnz at_server
	gload 1
	push 1
	add
	gstore 1
	gload 1
	push 30
	ge
	jnz dead
	push 2000
	host a_sleep
	jmp out
at_server:
	push 0
	gstore 1
	gload 0
	host a_sleep
back:
	push 1
	host a_itin_select
	pop
	host a_migrate
	jnz home
	gload 1
	push 1
	add
	gstore 1
	gload 1
	push 30
	ge
	jnz dead
	push 2000
	host a_sleep
	jmp back
home:
	host a_deliver
	pop
	halt
dead:
	push -1
	halt
`

// maAgentProgram assembles the round-trip agent with its server-side
// compute time baked into global 0.
func maAgentProgram(computeMs int64) *vm.Program {
	return vm.MustAssemble(fmt.Sprintf(
		".globals 2\n.entry main\nmain:\n\tpush %d\n\tgstore 0\n%s", computeMs, maAgentBody))
}

// Start implements Workload.
func (a *Adaptive) Start(w *World) {
	servers := w.Pops[a.ServerPop]
	if len(servers) == 0 {
		panic(fmt.Sprintf("scenario: Adaptive server population %q is empty or unknown", a.ServerPop))
	}
	clients := w.Pops[a.Pop]
	if len(clients) == 0 {
		panic(fmt.Sprintf("scenario: Adaptive population %q is empty or unknown", a.Pop))
	}
	// Reset, not accumulate: the same Adaptive value may be started once
	// per seed when a Spec is reused across SERIAL runs. Parallel
	// replication must build a fresh Spec per seed (the Runner's RunFunc
	// contract), exactly as for Couriers and FetchWave — this state is not
	// goroutine-safe.
	a.Stats = AdaptiveStats{
		Start:      w.Sim.Now().Seconds(),
		Clients:    len(clients),
		ByParadigm: make(map[policy.Paradigm]int64),
	}
	a.engines = a.engines[:0]
	a.clients = append(a.clients[:0], clients...)

	// One echo service per task shape, so each round's reply is the size
	// its model declares.
	for k, model := range a.models() {
		var reply [][]byte
		if n := int(model.ReplyBytes / 8); n > 0 {
			reply = adapt.EncodeInts(make([]int64, n))
		}
		svc := a.serviceFor(k)
		for _, s := range servers {
			w.Hosts[s].RegisterService(svc, func(string, [][]byte) ([][]byte, error) {
				return reply, nil
			})
		}
	}
	for ci, name := range clients {
		a.startClient(w, ci, name, servers)
	}
}

// models returns the task shapes the stream rotates through.
func (a *Adaptive) models() []policy.Task {
	if len(a.Mix) > 0 {
		return a.Mix
	}
	return []policy.Task{a.Model}
}

// serviceFor names the echo service of mix slot k.
func (a *Adaptive) serviceFor(k int) string {
	if len(a.Mix) == 0 {
		return a.service()
	}
	return fmt.Sprintf("%s/%d", a.service(), k)
}

// startClient launches one client's endless task stream.
func (a *Adaptive) startClient(w *World, ci int, name string, servers []string) {
	h := w.Hosts[name]
	// Bind to the nearest server at start (positions are static for the
	// racing groups; roaming clients re-binding is a workload variant).
	pos := w.Net.Node(name).Pos()
	server := servers[0]
	bestD := w.Net.Node(server).Pos().Dist(pos)
	for _, s := range servers[1:] {
		if d := w.Net.Node(s).Pos().Dist(pos); d < bestD {
			server, bestD = s, d
		}
	}

	// One engine per task shape: hysteresis holds an incumbent per shape,
	// so a rotating mix re-selects per interaction without the previous
	// shape's incumbent polluting the next one's stability. A pinned
	// control group has no incumbents to keep — one engine carries the
	// whole stream.
	shapes := len(a.models())
	if a.Fixed != 0 {
		shapes = 1
	}
	engs := make([]*adapt.Engine, shapes)
	for k := range engs {
		var dec policy.Decider
		if a.Fixed == 0 {
			dec = &policy.AdaptiveDecider{
				Objective:    a.objective(),
				Hysteresis:   a.Hysteresis,
				BatteryAware: a.BatteryAware,
			}
		}
		engs[k] = adapt.NewEngine(h, dec)
	}
	a.engines = append(a.engines, engs...)

	// Mobile Agent plumbing, when both ends dock agents.
	var mc *maClient
	if plat := w.Platforms[name]; plat != nil && w.Platforms[server] != nil {
		mc = a.newMAClient(w, name, plat)
	}
	// The remote CPU factor is a static device-class attribute, read once:
	// it converts modelled ComputeUnits into server-side wall time for the
	// paradigms whose compute the kernel cannot charge itself (the MA
	// agent's sleep, the CS rounds' service work).
	remoteFactor := h.Context().GetNum("remote."+ctxsvc.KeyCPUFactor, 1)
	if remoteFactor <= 0 {
		remoteFactor = 1
	}

	unitName := fmt.Sprintf("adapt/%s/%s", a.label(), name)
	seq := int64(0)
	var launch func()
	launch = func() {
		seq++
		a.Stats.Started++
		model := a.modelFor(seq)
		// The shipped unit is versioned per task, so COD cannot amortise
		// one fetch over the whole stream — the code of each task is new, as
		// a per-interaction bundle would be.
		version := fmt.Sprintf("%d.0", seq)
		// Control groups pinned away from the code-shipping paradigms
		// never touch the unit: building and publishing it would be pure
		// registry churn (REV ships the client's own copy; only COD
		// fetches the published bundle).
		var unit *lmu.Unit
		if a.Fixed == 0 || a.Fixed == policy.REV || a.Fixed == policy.COD {
			unit = a.buildUnit(model, unitName, version)
		}
		if a.Fixed == 0 || a.Fixed == policy.COD {
			// The server carries the current bundle for COD fetches.
			// Publish pins, so the previous task's bundle — dead the
			// moment this one exists — is dropped explicitly or the
			// registry would grow by one pinned unit per task.
			if seq > 1 {
				w.Hosts[server].Registry().Remove(unitName, fmt.Sprintf("%d.0", seq-1))
			}
			if err := w.Hosts[server].Publish(unit); err != nil {
				panic(err)
			}
		}
		topic := fmt.Sprintf("adapt/%s/%s/%d", a.label(), name, seq)
		spec := &adapt.TaskSpec{
			Model:     model,
			Remote:    server,
			Service:   a.serviceFor(int((seq - 1) % int64(len(a.models())))),
			Unit:      unit,
			Entry:     "main",
			EvalEntry: "all", // one remote evaluation performs every round's work
			Args:      adaptiveArgs(model),
		}
		done := false
		started := w.Sim.Now()
		taskSeq := seq
		finish := func(p policy.Paradigm, ok bool) {
			if done {
				return
			}
			done = true
			if ok {
				a.Stats.Completed++
				a.Stats.ByParadigm[p]++
				a.Stats.Completion.Observe((w.Sim.Now() - started).Seconds())
			} else {
				a.Stats.Failed++
			}
			// A fetched fresh-code bundle is single-use: drop the stale
			// version from the client registry (no-op for non-COD tasks).
			if taskSeq > 1 {
				h.Registry().Remove(unitName, fmt.Sprintf("%d.0", taskSeq-1))
			}
			w.Sim.Schedule(a.gap(), launch)
		}
		if mc != nil {
			// The agent "computes" at the server: the modelled time at the
			// server's CPU factor. It carries the task's code and state
			// both ways — logical mobility honestly costed, so the MA
			// estimate and the MA reality stay in the same ballpark.
			computeMs := int64(0)
			if model.ComputeUnits > 0 {
				computeMs = int64(model.ComputeUnits / remoteFactor * 1000)
			}
			spec.SpawnAgent = a.spawn(mc, name, server, topic, model.StateBytes+model.CodeBytes, computeMs)
		}
		// CS rounds hit a service whose reply the kernel cannot delay, so
		// the modelled server-side compute is charged here instead: the
		// task completes after the work the model says the service did.
		settle := func(p policy.Paradigm, err error) {
			if err != nil || p != policy.CS || model.ComputeUnits <= 0 {
				finish(p, err == nil)
				return
			}
			w.Sim.Schedule(time.Duration(model.ComputeUnits/remoteFactor*float64(time.Second)),
				func() { finish(policy.CS, true) })
		}
		eng := engs[(seq-1)%int64(len(engs))]
		if a.Fixed != 0 {
			eng.RunAs(a.Fixed, spec, func(o adapt.Outcome, err error) {
				settle(a.Fixed, err)
			})
		} else {
			eng.Run(spec, func(o adapt.Outcome, err error) {
				settle(o.Paradigm, err)
			})
		}
		// The watchdog: a stream must survive a wedged task (an agent
		// roaming a partition, a dead server) without stalling forever.
		w.Sim.Schedule(a.deadline(), func() {
			if !done {
				mc.forget(topic)
				finish(0, false)
			}
		})
	}
	// Stagger stream starts by a hash of the client name, so ALL streams
	// in the world spread out — including same-index clients of co-located
	// racing groups, which a per-group index alone would synchronise.
	hash := fnv.New32a()
	hash.Write([]byte(name))
	stagger := time.Duration(ci)*50*time.Millisecond +
		time.Duration(hash.Sum32()%997)*time.Millisecond
	w.Sim.Schedule(stagger, launch)
}

// maClient is one client's Mobile Agent plumbing: a single message
// handler dispatching deliveries by topic, and the client's compiled
// round-trip programs (one per distinct compute time in the mix).
type maClient struct {
	plat     *agent.Platform
	programs map[int64]*vm.Program
	waiting  map[string]func([]int64, error)
}

// newMAClient installs the dispatch handler once per client.
func (a *Adaptive) newMAClient(w *World, client string, plat *agent.Platform) *maClient {
	mc := &maClient{
		plat:     plat,
		programs: make(map[int64]*vm.Program),
		waiting:  make(map[string]func([]int64, error)),
	}
	w.Hosts[client].OnMessage(func(_, topic string, _ []byte) {
		if cb := mc.waiting[topic]; cb != nil {
			delete(mc.waiting, topic) // at-least-once: duplicates are dropped
			cb([]int64{42}, nil)
		}
	})
	return mc
}

// spawn launches the round-trip agent for one task.
func (a *Adaptive) spawn(mc *maClient, client, server, topic string, stateBytes, computeMs int64) func(func([]int64, error)) error {
	return func(cbDone func([]int64, error)) error {
		prog := mc.programs[computeMs]
		if prog == nil {
			prog = maAgentProgram(computeMs)
			mc.programs[computeMs] = prog
		}
		mc.waiting[topic] = cbDone
		data := map[string][]byte{
			agent.KeyItinerary: agent.EncodeItinerary([]string{server, client}),
			agent.KeyTopic:     []byte(topic),
			agent.KeyPayload:   make([]byte, stateBytes),
		}
		_, err := mc.plat.Spawn("task", prog, data, "main")
		if err != nil {
			delete(mc.waiting, topic) // the agent never launched
		}
		return err
	}
}

// forget drops a task's delivery slot — the watchdog calls it when an
// agent is declared lost, so abandoned tasks do not accumulate in the
// dispatch map (a late straggler is then simply ignored).
func (mc *maClient) forget(topic string) {
	if mc != nil {
		delete(mc.waiting, topic)
	}
}

// Engines exposes the adaptation engines in client creation order, with
// one engine per task shape per client for adapting streams (a client's
// shapes are contiguous); pinned streams carry one engine per client.
func (a *Adaptive) Engines() []*adapt.Engine { return a.engines }

// Collect implements Probe: the stream's trajectory under its label —
// completion counts, the paradigm share (overall and per run half, so
// re-selection over time is visible), switch totals, model regret and
// battery survival.
func (a *Adaptive) Collect(w *World, t *metrics.Table) {
	prefix := a.label()
	s := &a.Stats
	t.AddRow(prefix+" tasks done", fmt.Sprintf("%d/%d", s.Completed, s.Started))
	if s.Completion.N() > 0 {
		t.AddRow(prefix+" median task s", fmt.Sprintf("%.1f", s.Completion.Median()))
	} else {
		t.AddRow(prefix+" median task s", "-")
	}
	share := func(m map[policy.Paradigm]int64) string {
		return fmt.Sprintf("%d/%d/%d/%d", m[policy.CS], m[policy.REV], m[policy.COD], m[policy.MA])
	}
	t.AddRow(prefix+" done CS/REV/COD/MA", share(s.ByParadigm))
	// Decision share per run half: the visible signature of re-selection.
	start := time.Duration(s.Start * float64(time.Second))
	mid := start + (w.Sim.Now()-start)/2
	first := map[policy.Paradigm]int64{}
	second := map[policy.Paradigm]int64{}
	var switches int64
	var regret, decisions float64
	for _, eng := range a.engines {
		for _, d := range eng.History() {
			if d.At <= mid {
				first[d.Paradigm]++
			} else {
				second[d.Paradigm]++
			}
		}
		switches += eng.Switches()
		regret += eng.Regret()
		decisions += float64(eng.Decisions())
	}
	if a.Fixed == 0 {
		t.AddRow(prefix+" decided 1st half", share(first))
		t.AddRow(prefix+" decided 2nd half", share(second))
		t.AddRow(prefix+" switches", switches)
		if decisions > 0 {
			t.AddRow(prefix+" mean regret", fmt.Sprintf("%.1f", regret/decisions))
		} else {
			t.AddRow(prefix+" mean regret", "-")
		}
	}
	alive := 0
	budgeted := false
	for _, name := range a.clients {
		if node := w.Net.Node(name); node != nil && node.EnergyBudget() > 0 {
			budgeted = true
			if node.Battery() > 0 {
				alive++
			}
		}
	}
	if budgeted {
		t.AddRow(prefix+" batteries alive", fmt.Sprintf("%d/%d", alive, len(a.clients)))
	}
}
