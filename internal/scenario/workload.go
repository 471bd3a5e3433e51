package scenario

import (
	"fmt"
	"math"
	"time"

	"logmob/internal/agent"
	"logmob/internal/core"
	"logmob/internal/lmu"
	"logmob/internal/metrics"
	"logmob/internal/netsim"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

// The built-in workloads cover the four mobile-code paradigms:
//
//   - Calls      — Client/Server request/reply rounds
//   - EvalOnce   — Remote Evaluation: ship code once, collect the result
//   - FetchRun   — Code On Demand: fetch a component once, run it locally
//   - SpawnAgent — Mobile Agents: launch one agent
//   - Couriers   — Mobile Agents at crowd scale: store-carry-forward fleet
//
// Func is the escape hatch for bespoke activity.

// Func adapts a function to a Workload.
type Func func(w *World)

// Start implements Workload.
func (f Func) Start(w *World) { f(w) }

// UnitFunc builds a signed Logical Mobility Unit against the compiled world
// (typically using w.ID to sign).
type UnitFunc func(w *World) *lmu.Unit

// Calls is the Client/Server workload: Rounds sequential request/reply
// exchanges from Client to a service registered on Server. Each reply
// triggers the next request, as an interactive session would.
type Calls struct {
	Client, Server string
	// Service names the server-side service; it is registered by the
	// workload and echoes ReplyBytes per request.
	Service    string
	ReqBytes   int
	ReplyBytes int
	Rounds     int64
}

// Start implements Workload.
func (c Calls) Start(w *World) {
	reply := make([]byte, c.ReplyBytes)
	w.Hosts[c.Server].RegisterService(c.Service, func(string, [][]byte) ([][]byte, error) {
		return [][]byte{reply}, nil
	})
	req := make([]byte, c.ReqBytes)
	device := w.Hosts[c.Client]
	remaining := c.Rounds
	var call func()
	call = func() {
		device.Call(c.Server, c.Service, [][]byte{req}, func([][]byte, error) {
			remaining--
			if remaining > 0 {
				call()
			}
		})
	}
	call()
}

// EvalOnce is the Remote Evaluation workload: Client ships the unit to
// Server for execution and collects the result stack.
type EvalOnce struct {
	Client, Server string
	Unit           UnitFunc
	Entry          string
	Args           []int64
}

// Start implements Workload.
func (e EvalOnce) Start(w *World) {
	u := e.Unit(w)
	w.Hosts[e.Client].Eval(e.Server, u, e.Entry, e.Args, func([]int64, error) {})
}

// FetchRun is the Code On Demand workload: the unit is published on Server,
// Client fetches it once and runs its entry Runs times locally.
type FetchRun struct {
	Client, Server string
	Unit           UnitFunc
	Entry          string
	Runs           int64
	Args           []int64
}

// Start implements Workload.
func (f FetchRun) Start(w *World) {
	unit := f.Unit(w)
	if err := w.Hosts[f.Server].Publish(unit); err != nil {
		panic(err)
	}
	client := w.Hosts[f.Client]
	client.Fetch(f.Server, unit.Manifest.Name, "", func(u *lmu.Unit, err error) {
		if err == nil {
			for i := int64(0); i < f.Runs; i++ {
				_, _ = client.RunComponent(unit.Manifest.Name, f.Entry, f.Args...)
			}
		}
	})
}

// FetchWave is Code On Demand at population scale: every member of Pop
// fetches Unit from whichever member of ServerPop is currently nearest, and
// runs Entry once locally on success. Failed attempts (the node is out of
// range, or the reply times out) retry every Retry, so mobile nodes pick
// the update up as they roam past a server — an app update rolling out
// through a city.
type FetchWave struct {
	// Pop is the fetching population; ServerPop hosts the published unit.
	Pop, ServerPop string
	Unit           UnitFunc
	// Entry, if non-empty, is run locally once after a successful fetch.
	Entry string
	Args  []int64
	// Retry is the per-node retry interval (default 15s of virtual time).
	Retry time.Duration
	// Prefix labels the wave's probe rows ("guide" reads "guides fetched").
	Prefix string

	// Stats is filled in while the scenario runs; list the same *FetchWave
	// in Spec.Probes to report it (fields are only read after the run).
	Stats FetchWaveStats
}

// FetchWaveStats records rollout progress for probes.
type FetchWaveStats struct {
	// Start is the virtual time the wave launched, in seconds.
	Start float64
	// Clients is the fetching population size.
	Clients int
	// Fetched counts members that completed the fetch.
	Fetched int
	// Done observes fetch completion times, in seconds of virtual time.
	Done metrics.Series
}

// Start implements Workload.
func (f *FetchWave) Start(w *World) {
	unit := f.Unit(w)
	servers := w.Pops[f.ServerPop]
	if len(servers) == 0 {
		panic(fmt.Sprintf("scenario: FetchWave server population %q is empty or unknown", f.ServerPop))
	}
	clients := w.Pops[f.Pop]
	if len(clients) == 0 {
		panic(fmt.Sprintf("scenario: FetchWave population %q is empty or unknown", f.Pop))
	}
	for _, s := range servers {
		if err := w.Hosts[s].Publish(unit); err != nil {
			panic(err)
		}
	}
	retry := f.Retry
	if retry <= 0 {
		retry = 15 * time.Second
	}
	// Reset, not accumulate: the same FetchWave value may be started once
	// per seed when a Spec is reused across runs.
	f.Stats = FetchWaveStats{Start: w.Sim.Now().Seconds(), Clients: len(clients)}
	wave := &fetchWave{f: f, w: w, servers: servers, unit: unit.Manifest.Name, retry: retry}
	for _, name := range clients {
		c := &waveClient{wave: wave, h: w.Hosts[name], node: w.Net.Node(name)}
		c.done = c.fetched
		c.attempt()
	}
}

// fetchWave is what a started FetchWave's clients share.
type fetchWave struct {
	f       *FetchWave
	w       *World
	servers []string
	unit    string
	retry   time.Duration
}

// waveClient is one member of a FetchWave. Its Fetch callback is bound once,
// and its retry timer is made on the first failure and re-armed by every
// later one, so a client that keeps missing its server allocates nothing of
// its own per retry.
type waveClient struct {
	wave  *fetchWave
	h     *core.Host
	node  *netsim.Node
	done  func(*lmu.Unit, error) // c.fetched, bound once
	timer transport.Timer        // nil until the first failure
}

// attempt fetches the unit from the currently nearest server; the node may
// have roamed since the last attempt.
func (c *waveClient) attempt() {
	wv := c.wave
	best, bestD := "", math.Inf(1)
	for _, s := range wv.servers {
		if d := wv.w.Net.Node(s).Pos().Dist(c.node.Pos()); d < bestD {
			best, bestD = s, d
		}
	}
	c.h.Fetch(best, wv.unit, "", c.done)
}

// fetched completes an attempt: a failure re-arms the retry, a success
// records the fetch and runs Entry.
func (c *waveClient) fetched(u *lmu.Unit, err error) {
	wv := c.wave
	if err != nil {
		if c.timer == nil {
			c.timer = wv.w.Sim.NewTimer(c.attempt)
		}
		c.timer.Reset(wv.retry)
		return
	}
	f := wv.f
	f.Stats.Fetched++
	f.Stats.Done.Observe(wv.w.Sim.Now().Seconds())
	if f.Entry != "" {
		_, _ = c.h.RunComponent(u.Manifest.Name, f.Entry, f.Args...)
	}
}

// Collect implements Probe: how much of the population has the unit, and
// the median time to get it.
func (f *FetchWave) Collect(_ *World, t *metrics.Table) {
	s := &f.Stats
	t.AddRow(f.Prefix+"s fetched", fmt.Sprintf("%d/%d", s.Fetched, s.Clients))
	if s.Done.N() > 0 {
		t.AddRow(f.Prefix+" median fetch s", fmt.Sprintf("%.1f", s.Done.Median()-s.Start))
	} else {
		t.AddRow(f.Prefix+" median fetch s", "-")
	}
}

// SpawnAgent is the Mobile Agent workload: launch one agent on Host's
// platform, either from a raw program + data space or from a pre-built unit.
type SpawnAgent struct {
	Host string
	// Name and Program + Data spawn a locally-built agent …
	Name    string
	Program *vm.Program
	Data    map[string][]byte
	// … or Unit spawns a pre-signed unit.
	Unit  UnitFunc
	Entry string
}

// Start implements Workload.
func (s SpawnAgent) Start(w *World) {
	p := w.Platforms[s.Host]
	if p == nil {
		panic(fmt.Sprintf("scenario: SpawnAgent on %q, which has no agent platform", s.Host))
	}
	var err error
	if s.Unit != nil {
		_, err = p.SpawnUnit(s.Unit(w), s.Entry)
	} else {
		_, err = p.Spawn(s.Name, s.Program, s.Data, s.Entry)
	}
	if err != nil {
		panic(err)
	}
}

// Couriers is the crowd-scale Mobile Agent workload: Count store-carry-
// forward couriers, each spawned on a member of SourcePop currently between
// SrcMin and SrcMax metres from its target (targets rotate through
// TargetPop), carrying PayloadBytes to deliver under its topic. First
// deliveries are recorded per topic; agent transfer is at-least-once, so a
// courier can occasionally arrive twice.
type Couriers struct {
	Count     int
	TargetPop string
	SourcePop string
	// SrcMin/SrcMax bound the spawn distance from the target (metres); a
	// courier is skipped when no unused source is in the band.
	SrcMin, SrcMax float64
	PayloadBytes   int
	// TopicPrefix names courier c's topic TopicPrefix+c; the courier itself
	// is "courier"+c. Couriers run GreedyCourierProgram, so the source
	// population's platforms must carry GreedyGeoCaps.
	TopicPrefix string

	// Stats is filled in while the scenario runs; list the same *Couriers
	// in Spec.Probes to report it (fields are only read after the run).
	Stats CourierStats
}

// CourierStats records courier outcomes for probes.
type CourierStats struct {
	// Spawned counts couriers actually launched (a target can lack an
	// in-band source on some seeds).
	Spawned int
	// SpawnStart is the virtual time the fleet launched, in seconds.
	SpawnStart float64
	// DeliveredBy marks topics delivered at least once.
	DeliveredBy map[string]bool
	// Delivered observes first-delivery times, in seconds of virtual time.
	Delivered metrics.Series
}

// Start implements Workload.
func (c *Couriers) Start(w *World) {
	// Reset, not accumulate: the same Couriers value may be started once
	// per seed when a Spec is reused across runs.
	c.Stats = CourierStats{DeliveredBy: make(map[string]bool)}
	targets := w.Pops[c.TargetPop]
	sources := w.Pops[c.SourcePop]
	if len(targets) == 0 {
		panic(fmt.Sprintf("scenario: Couriers target population %q is empty or unknown", c.TargetPop))
	}
	if len(sources) == 0 {
		panic(fmt.Sprintf("scenario: Couriers source population %q is empty or unknown", c.SourcePop))
	}
	for _, name := range targets {
		w.Hosts[name].OnMessage(func(_, topic string, _ []byte) {
			if !c.Stats.DeliveredBy[topic] {
				c.Stats.DeliveredBy[topic] = true
				c.Stats.Delivered.Observe(w.Sim.Now().Seconds())
			}
		})
	}
	c.Stats.SpawnStart = w.Sim.Now().Seconds()
	used := make(map[string]bool)
	for i := 0; i < c.Count; i++ {
		target := targets[i%len(targets)]
		targetPos := w.Net.Node(target).Pos()
		src := ""
		for _, name := range sources {
			if used[name] {
				continue
			}
			d := w.Net.Node(name).Pos().Dist(targetPos)
			if d >= c.SrcMin && d < c.SrcMax {
				src = name
				break
			}
		}
		if src == "" {
			continue // no source currently in the band; skip this courier
		}
		used[src] = true
		_, err := w.Platforms[src].Spawn(fmt.Sprintf("courier%d", i), GreedyCourierProgram,
			agent.NewCourierData(target, fmt.Sprintf("%s%d", c.TopicPrefix, i),
				make([]byte, c.PayloadBytes)), "main")
		if err != nil {
			panic(err)
		}
		c.Stats.Spawned++
	}
}

// Collect implements Probe: delivery counts and the median first-delivery
// time. The denominator is the couriers actually spawned: a target can lack
// an unused source in the band on some seeds, and a spawn gap must not read
// as a delivery failure.
func (c *Couriers) Collect(_ *World, t *metrics.Table) {
	s := &c.Stats
	t.AddRow("couriers delivered", fmt.Sprintf("%d/%d", len(s.DeliveredBy), s.Spawned))
	if s.Delivered.N() > 0 {
		t.AddRow("courier median delivery s", fmt.Sprintf("%.1f", s.Delivered.Median()-s.SpawnStart))
	} else {
		t.AddRow("courier median delivery s", "-")
	}
}
