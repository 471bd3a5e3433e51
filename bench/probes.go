package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"logmob/internal/agent"
	"logmob/internal/app"
	"logmob/internal/core"
	"logmob/internal/ctxsvc"
	"logmob/internal/discovery"
	"logmob/internal/lmu"
	"logmob/internal/netsim"
	"logmob/internal/policy"
	"logmob/internal/registry"
	"logmob/internal/scenario"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/vm"
	"logmob/internal/wire"
)

// A layer probe times one public call of one layer, from outside, at the
// shape a named workload gives it. README.md lists which end-to-end metric
// each probe is expected to move, and on which workload.

const (
	probeBatches   = 11                   // timed batches per probe
	probeBatchTime = 4 * time.Millisecond // least duration of one batch
)

// probeCost is the per-unit cost over a probe's batches: the undisturbed
// time, the median counts.
type probeCost struct{ ns, allocs, bytes float64 }

// prober runs probes, recording one span per batch when tracing.
type prober struct {
	tr *tracer
}

// measure times fn, which does one batch of work and returns how many units
// it covered. Batches shorter than probeBatchTime are repeated until they
// are long enough to time.
func (p *prober) measure(name string, fn func() int) probeCost {
	t0 := time.Now()
	fn() // warm up, and size the batch
	reps := 1
	if once := time.Since(t0); once < probeBatchTime {
		reps = int(probeBatchTime/(once+1)) + 1
	}
	var ns, allocs, bytes []float64
	for b := 0; b < probeBatches; b++ {
		var before, after runtime.MemStats
		id := p.tr.begin("probe."+name, -1, int64(b))
		runtime.ReadMemStats(&before)
		start := time.Now()
		units := 0
		for r := 0; r < reps; r++ {
			units += fn()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		p.tr.end(id)
		u := float64(units)
		ns = append(ns, float64(elapsed.Nanoseconds())/u)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/u)
		bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc)/u)
	}
	return probeCost{undisturbed(ns), median(allocs), median(bytes)}
}

type probeMetric struct{ name, unit, better string }

// probeDef is one probe: the metrics it reports and the function producing
// their values, in order.
type probeDef struct {
	metrics []probeMetric
	run     func(p *prober) ([]float64, error)
}

func nsMetric(name string) probeMetric     { return probeMetric{name, "ns", lower} }
func allocsMetric(name string) probeMetric { return probeMetric{name, "count", lower} }

// nsProbe is a probe reporting time only.
func nsProbe(name string, setup func() (fn func() int, cleanup func(), err error)) probeDef {
	return probeDef{
		metrics: []probeMetric{nsMetric(name + ".ns")},
		run: func(p *prober) ([]float64, error) {
			fn, cleanup, err := setup()
			if err != nil {
				return nil, err
			}
			defer cleanup()
			return []float64{p.measure(name, fn).ns}, nil
		},
	}
}

// nsAllocsProbe reports time and allocations.
func nsAllocsProbe(name string, setup func() (fn func() int, cleanup func(), err error)) probeDef {
	return probeDef{
		metrics: []probeMetric{nsMetric(name + ".ns"), allocsMetric(name + ".allocs")},
		run: func(p *prober) ([]float64, error) {
			fn, cleanup, err := setup()
			if err != nil {
				return nil, err
			}
			defer cleanup()
			c := p.measure(name, fn)
			return []float64{c.ns, c.allocs}, nil
		},
	}
}

func noCleanup() {}

// one adapts a single call to a batch of one unit.
func one(fn func()) func() int { return func() int { fn(); return 1 } }

// Shapes shared with the workloads.
const (
	smallUnitBytes = 3000      // T1's codec, what disaster-sized and wire_mix units carry
	bulkUnitBytes  = 256 << 10 // wire_bulk's unit
	festivalNodes  = 2000
	festivalField  = 1500.0
	festivalRange  = 40.0
	metroNodes     = 10000
	metroField     = 3200.0
)

var probeID = security.MustNewIdentity("probe-publisher")

// probes is every layer probe, in reporting order.
var probes = []probeDef{
	// --- codec: wire framing, unit packing, signatures
	nsAllocsProbe("wire.frame_rt", func() (func() int, func(), error) { return frameRoundTrip(callReplyBytes), noCleanup, nil }),
	nsProbe("wire.frame_rt_64k", func() (func() int, func(), error) { return frameRoundTrip(64 << 10), noCleanup, nil }),
	nsAllocsProbe("lmu.pack_unpack", func() (func() int, func(), error) { return packUnpack(smallUnitBytes), noCleanup, nil }),
	nsProbe("lmu.pack_unpack_256k", func() (func() int, func(), error) { return packUnpack(bulkUnitBytes), noCleanup, nil }),
	nsProbe("security.sign", func() (func() int, func(), error) {
		u := app.BuildCodec(probeID, "probe", "1.0", smallUnitBytes)
		return one(func() { probeID.Sign(u) }), noCleanup, nil
	}),
	nsProbe("security.verify", func() (func() int, func(), error) { return verifyUnit(smallUnitBytes), noCleanup, nil }),
	nsProbe("security.verify_256k", func() (func() int, func(), error) { return verifyUnit(bulkUnitBytes), noCleanup, nil }),

	// --- vm, registry
	{
		metrics: []probeMetric{nsMetric("vm.eval.ns_per_step")},
		run: func(p *prober) ([]float64, error) {
			m, err := vm.New(vmLoopProgram, nil, 1<<20)
			if err != nil {
				return nil, err
			}
			c := p.measure("vm.eval", func() int {
				if m.Reinit(vmLoopProgram, nil, 1<<20) != nil || m.SetEntry("main", 100) != nil || m.Run() != nil {
					return 1
				}
				return int(m.Steps)
			})
			return []float64{c.ns}, nil
		},
	},
	nsProbe("vm.snapshot_restore", vmSnapshotRestore),
	nsProbe("registry.put_get", func() (func() int, func(), error) {
		units := make([]*lmu.Unit, 16)
		for i := range units {
			units[i] = &lmu.Unit{
				Manifest: lmu.Manifest{Name: string(rune('a' + i)), Version: "1.0", Kind: lmu.KindComponent},
				Code:     make([]byte, 1024),
			}
		}
		r := registry.New(int64(units[0].Size()) * 4) // quota pressure: every Put evicts
		i := 0
		return one(func() {
			u := units[i%len(units)]
			i++
			_ = r.Put(u) // ErrQuota cannot occur: one unit always fits
			r.Get(u.Manifest.Name)
		}), noCleanup, nil
	}),

	// --- real wire: TCP endpoint, mux, core over TCP
	nsAllocsProbe("transport.tcp_rt", func() (func() int, func(), error) { return tcpRoundTrip(callReqBytes, callReplyBytes) }),
	nsProbe("transport.tcp_rt_64k", func() (func() int, func(), error) { return tcpRoundTrip(64<<10, 64<<10) }),
	nsProbe("transport.tcp_dial", tcpDial),
	nsProbe("transport.mux_dispatch", func() (func() int, func(), error) {
		a, b := newLoopPair()
		got := 0
		transport.NewMux(b).Channel(transport.ChanKernel).SetHandler(func(string, []byte) { got++ })
		ch := transport.NewMux(a).Channel(transport.ChanKernel)
		payload := make([]byte, callReqBytes)
		return one(func() { _ = ch.Send("b", payload) }), noCleanup, nil // the loop endpoint cannot fail
	}),
	nsProbe("core.call_tcp", func() (func() int, func(), error) {
		w := &wireWork{spec: wireSpecs["wire_mix"]}
		if err := w.start(); err != nil {
			return nil, nil, err
		}
		return one(func() { _ = w.do(opCall, 0, nil, -1, 0) }), w.tearDown, nil
	}),
	nsProbe("core.publish_tcp_256k", func() (func() int, func(), error) {
		w := &wireWork{spec: wireSpecs["wire_bulk"]}
		if err := w.start(); err != nil {
			return nil, nil, err
		}
		return one(func() { _ = w.do(opPublish, 0, nil, -1, 0) }), w.tearDown, nil
	}),

	// --- simulated wire: simnet endpoints, core and agents over the simulator
	nsProbe("transport.simnet_rt", func() (func() int, func(), error) {
		w := scenario.NewWorld(1)
		w.Net.AddNode("a", netsim.Position{}, netsim.LAN)
		w.Net.AddNode("b", netsim.Position{}, netsim.LAN)
		a, err := w.Transport.Endpoint("a")
		if err != nil {
			return nil, nil, err
		}
		b, err := w.Transport.Endpoint("b")
		if err != nil {
			return nil, nil, err
		}
		payload := make([]byte, callReqBytes)
		b.SetHandler(func(from string, p []byte) { _ = b.Send(from, p) })
		a.SetHandler(func(string, []byte) {})
		return one(func() {
			_ = a.Send("b", payload) // LAN nodes are always connected
			w.Sim.RunFor(time.Second)
		}), noCleanup, nil
	}),
	nsAllocsProbe("core.call_sim", func() (func() int, func(), error) {
		w, client, server := simHostPair()
		server.RegisterService("ping", func(string, [][]byte) ([][]byte, error) { return [][]byte{{1}}, nil })
		return one(func() {
			client.Call("server", "ping", [][]byte{{0}}, func([][]byte, error) {})
			w.Sim.RunFor(time.Second)
		}), noCleanup, nil
	}),
	nsProbe("core.eval_sim", func() (func() int, func(), error) {
		w, client, _ := simHostPair()
		job := app.BuildCodec(w.ID, "probe", "1.0", smallUnitBytes)
		job.Manifest.Kind = lmu.KindRequest
		w.ID.Sign(job)
		return one(func() {
			client.Eval("server", job, "decode", []int64{codecSamples}, func([]int64, error) {})
			w.Sim.RunFor(time.Second)
		}), noCleanup, nil
	}),
	nsProbe("core.fetch_sim", func() (func() int, func(), error) {
		w, client, server := simHostPair()
		u := app.BuildCodec(w.ID, "probe", "1.0", smallUnitBytes)
		if err := server.Publish(u); err != nil {
			return nil, nil, err
		}
		return one(func() {
			client.Fetch("server", u.Manifest.Name, "", func(*lmu.Unit, error) {})
			w.Sim.RunFor(time.Second)
		}), noCleanup, nil
	}),
	nsAllocsProbe("agent.hop", func() (func() int, func(), error) {
		w, client, server := simHostPair()
		plat := agent.NewPlatform(client, agent.Env{Seed: 1})
		agent.NewPlatform(server, agent.Env{Seed: 1})
		data := map[string][]byte{agent.KeyDest: []byte("server")}
		return one(func() {
			_, _ = plat.Spawn("hopper", hopProgram, data, "main") // hopProgram has a main entry
			w.Sim.RunFor(time.Second)
		}), noCleanup, nil
	}),
	nsProbe("netsim.route", func() (func() int, func(), error) {
		// T3's densest field: 24 ad-hoc nodes on 500 m, 60 m range. Moving a
		// node first bumps the topology epoch, so every Route is computed.
		s := netsim.NewSim(1)
		net := netsim.NewNetwork(s)
		class := netsim.AdHoc
		class.Range = 60
		ids := scatter(net, 24, 500, class, rand.New(rand.NewSource(1)))
		i := 0
		return one(func() {
			i++
			pos := net.Node(ids[2]).Pos()
			pos.X += float64(i%2)*2 - 1
			net.SetPos(ids[2], pos)
			net.Route(ids[0], ids[1])
		}), noCleanup, nil
	}),
	nsProbe("netsim.send_deliver", func() (func() int, func(), error) {
		s := netsim.NewSim(1)
		net := netsim.NewNetwork(s)
		net.AddNode("a", netsim.Position{}, netsim.LAN)
		net.AddNode("b", netsim.Position{}, netsim.LAN)
		net.SetHandler("b", func(string, []byte) {})
		payload := make([]byte, 256) // T3's message size
		return one(func() {
			_ = net.Send("a", "b", payload) // LAN nodes are always connected
			s.RunFor(time.Second)
		}), noCleanup, nil
	}),

	// --- dense crowd: neighbor search, broadcast, ticking, beacons
	{
		metrics: []probeMetric{nsMetric("netsim.neighbors.ns")},
		run: func(p *prober) ([]float64, error) {
			net, ids := festivalNet(1)
			i := 0
			c := p.measure("netsim.neighbors", func() int {
				i++
				pos := net.Node(ids[0]).Pos()
				pos.X += float64(i%2)*2 - 1
				net.SetPos(ids[0], pos) // epoch bump: the neighbor cache is cold
				for _, id := range ids {
					net.Neighbors(id)
				}
				return len(ids)
			})
			return []float64{c.ns}, nil
		},
	},
	{
		metrics: []probeMetric{nsMetric("netsim.broadcast.ns_per_recv")},
		run: func(p *prober) ([]float64, error) {
			net, ids := festivalNet(1)
			recv := 0
			for _, id := range ids {
				net.SetHandler(id, func(string, []byte) { recv++ })
			}
			payload := make([]byte, 64)
			c := p.measure("netsim.broadcast", func() int {
				recv = 0
				for _, id := range ids[:200] {
					net.Broadcast(id, payload)
				}
				net.Sim().RunFor(time.Second)
				return max(recv, 1)
			})
			return []float64{c.ns}, nil
		},
	},
	tickProbe("netsim.tick_dense.ns_per_node", festivalNodes, festivalField, 1, 5, 5*time.Second, 1),
	tickProbe("netsim.tick_dense_w2.ns_per_node", festivalNodes, festivalField, 1, 5, 5*time.Second, 2),
	{
		metrics: []probeMetric{nsMetric("discovery.beacon_round.ns_per_host"), allocsMetric("discovery.beacon_round.allocs_per_host")},
		run: func(p *prober) ([]float64, error) {
			const ivl = 20 * time.Second // T11's beacon interval
			net, ids := festivalNet(1)
			sn := transport.NewSimNetwork(net)
			batch := discovery.NewBeaconBatch(net.Sim(), ivl)
			for _, id := range ids {
				ep, err := sn.Endpoint(id)
				if err != nil {
					return nil, err
				}
				b := discovery.NewBeacon(ep, net.Sim(), ivl)
				b.Advertise(discovery.Ad{Service: "presence"})
				batch.Add(b)
			}
			c := p.measure("discovery.beacon_round", func() int {
				net.Sim().RunFor(ivl)
				return len(ids)
			})
			return []float64{c.ns, c.allocs}, nil
		},
	},
	nsProbe("discovery.lookup", func() (func() int, func(), error) {
		w := scenario.NewWorld(1)
		eps := make([]transport.Endpoint, 0, 66)
		for _, name := range append([]string{"registry", "client"}, numbered("p", 64)...) {
			w.Net.AddNode(name, netsim.Position{}, netsim.LAN)
			ep, err := w.Transport.Endpoint(name)
			if err != nil {
				return nil, nil, err
			}
			eps = append(eps, ep)
		}
		discovery.NewLookupServer(eps[0], w.Sim)
		for i, ep := range eps[2:] {
			c := discovery.NewLookupClient(ep, w.Sim, "registry")
			if err := c.Advertise(discovery.Ad{Service: fmt.Sprintf("svc/%d", i%8), TTL: time.Hour}); err != nil {
				return nil, nil, err
			}
		}
		w.Sim.RunFor(time.Second)
		client := discovery.NewLookupClient(eps[1], w.Sim, "registry")
		return one(func() {
			client.Find(discovery.Query{Service: "svc/3"}, func([]discovery.Ad) {})
			w.Sim.RunFor(time.Second)
		}), noCleanup, nil
	}),

	// --- sparse city: parked nodes, the scheduler wheel, world building
	tickProbe("netsim.tick_sparse.ns_per_node", metroNodes, metroField, 10, 30, 240*time.Second, 1),
	{
		metrics: []probeMetric{nsMetric("netsim.sched_arm_fire.ns")},
		run: func(p *prober) ([]float64, error) {
			// 100k self-re-arming timers on one cadence with staggered phases:
			// every window fires and re-arms each once.
			const n, ivl = 100000, 30 * time.Second
			s := netsim.NewSim(1)
			var rearm func()
			rearm = func() { s.After(ivl, rearm) }
			for i := 0; i < n; i++ {
				s.After(time.Duration(i%1000)*ivl/1000, rearm)
			}
			c := p.measure("netsim.sched_arm_fire", func() int {
				s.RunFor(ivl)
				return n
			})
			return []float64{c.ns}, nil
		},
	},
	{
		metrics: []probeMetric{{"netsim.add_node.bytes", "B", lower}},
		run: func(p *prober) ([]float64, error) {
			rng := rand.New(rand.NewSource(1))
			c := p.measure("netsim.add_node", func() int {
				net := netsim.NewNetwork(netsim.NewSim(1))
				class := netsim.AdHoc
				class.Range = festivalRange
				return len(scatter(net, metroNodes, metroField, class, rng))
			})
			return []float64{c.bytes}, nil
		},
	},
	{
		metrics: []probeMetric{nsMetric("scenario.compile.ns_per_host"), {"scenario.compile.bytes_per_host", "B", lower}},
		run: func(p *prober) ([]float64, error) {
			spec := crowdSpec(festivalNodes, festivalField)
			c := p.measure("scenario.compile", func() int {
				spec.Compile(1)
				return festivalNodes
			})
			return []float64{c.ns, c.bytes}, nil
		},
	},

	// --- adversity: ack/retry under loss, the decision the adaptive loop makes
	{
		metrics: []probeMetric{nsMetric("transport.reliable_rt.ns"), allocsMetric("transport.reliable_rt.allocs"),
			{"transport.reliable.retry_share", "ratio", lower}},
		run: reliableProbe,
	},
	nsProbe("policy.decide", func() (func() int, func(), error) {
		ctx := ctxsvc.New(func() time.Duration { return 0 }, 16)
		ctx.SetNum(ctxsvc.KeyBandwidth, 90e3)
		ctx.SetNum(ctxsvc.KeyLatency, 0.03)
		ctx.SetNum(ctxsvc.KeyLoss, 0.15)
		ctx.SetNum(ctxsvc.KeyEnergyPerByte, 1)
		ctx.SetNum(ctxsvc.KeyBattery, 0.6)
		d := &policy.AdaptiveDecider{
			Objective:    policy.Objective{BytesWeight: 0.3, LatencyWeight: 600, EnergyWeight: 0.3},
			BatteryAware: true,
		}
		task := policy.Task{Interactions: 6, ReqBytes: 64, ReplyBytes: 64,
			CodeBytes: 1500, StateBytes: 200, ResultBytes: 32, ComputeUnits: 0.5}
		allowed := policy.Paradigms()
		return one(func() { _, _ = policy.Decide(d, task, allowed, ctx) }), noCleanup, nil // a valid task cannot fail
	}),
	nsProbe("ctxsvc.set_get", func() (func() int, func(), error) {
		ctx := ctxsvc.New(func() time.Duration { return 0 }, 16)
		v := 0.0
		return one(func() {
			v++
			ctx.SetNum(ctxsvc.KeyLoss, v)
			ctx.GetNum(ctxsvc.KeyLoss, 0)
		}), noCleanup, nil
	}),
}

// runProbes runs every probe and returns the metric values by name.
func runProbes(tr *tracer) (map[string]float64, error) {
	p := &prober{tr: tr}
	out := map[string]float64{}
	for _, def := range probes {
		runtime.GC()
		vals, err := def.run(p)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", def.metrics[0].name, err)
		}
		for i, m := range def.metrics {
			out[m.name] = vals[i]
		}
	}
	return out, nil
}

func frameRoundTrip(size int) func() int {
	payload := make([]byte, size)
	var enc bytes.Buffer
	br := bytes.NewReader(nil)
	var buf []byte
	return one(func() {
		enc.Reset()
		_, _ = wire.WriteFrame(&enc, payload) // a bytes.Buffer cannot fail
		br.Reset(enc.Bytes())
		if frame, err := wire.ReadFrameInto(br, buf); err == nil {
			buf = frame
		}
	})
}

func packUnpack(tableBytes int) func() int {
	u := app.BuildCodec(probeID, "probe", "1.0", tableBytes)
	return one(func() { _, _ = lmu.Unpack(u.Pack()) }) // a freshly packed unit always unpacks
}

func verifyUnit(tableBytes int) func() int {
	u := app.BuildCodec(probeID, "probe", "1.0", tableBytes)
	trust := security.NewTrustStore()
	trust.TrustIdentity(probeID)
	return one(func() { _ = security.Verify(u, trust, security.Policy{}) })
}

// vmLoopProgram sums 1..n: the REV-style evaluation root bench_test.go's
// BenchmarkVMEval times, here per executed instruction.
var vmLoopProgram = vm.MustAssemble(`
.entry main
main:
	store 0
	push 0
loop:
	load 0
	jz done
	load 0
	add
	load 0
	push 1
	sub
	store 0
	jmp loop
done:
	halt
`)

// hopProgram migrates once to KeyDest and halts there.
var hopProgram = vm.MustAssemble(`
.entry main
main:
	host a_select_dest
	jz done
	host a_migrate
	pop
done:
	halt
`)

func vmSnapshotRestore() (func() int, func(), error) {
	prog := vm.MustAssemble(`
.globals 8
.entry main
main:
	push 11
	call inner
	halt
inner:
	store 5
	push 99
	gstore 3
	push 1000000
	host pause
	ret
`)
	host := vm.NewHostTable()
	host.Register(vm.HostFunc{Name: "pause", Arity: 1,
		Fn: func(*vm.Machine, []int64) ([]int64, int64, error) { return nil, 1, nil }})
	m, err := vm.New(prog, host, 1000)
	if err != nil {
		return nil, nil, err
	}
	if err := m.SetEntry("main"); err != nil {
		return nil, nil, err
	}
	if err := m.Run(); err != nil {
		return nil, nil, err
	}
	return one(func() { _, _ = vm.Restore(prog, host, 1000, m.Snapshot()) }), noCleanup, nil
}

// tcpRoundTrip times one request/reply exchange of the given payload sizes
// between two raw TCPEndpoints, one op in flight.
func tcpRoundTrip(req, reply int) (func() int, func(), error) {
	e := &echoWork{spec: wireSpec{window: 1}}
	if err := e.setUp(max(req, reply), 0); err != nil {
		return nil, nil, err
	}
	e.legs[opCall] = []echoLeg{{req, reply}}
	return one(func() { _ = e.do(opCall, 0, nil, -1, 0) }), e.tearDown, nil
}

// tcpDial times a cold client: listen, dial on first send, one small round
// trip, close.
func tcpDial() (func() int, func(), error) {
	server, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	server.SetHandler(func(from string, p []byte) { _ = server.Send(from, p) })
	payload := []byte{1}
	return one(func() {
		client, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return
		}
		done := make(chan struct{}, 1)
		client.SetHandler(func(string, []byte) { done <- struct{}{} })
		if client.Send(server.Addr(), payload) == nil {
			select {
			case <-done:
			case <-time.After(opTimeout):
			}
		}
		client.Close()
	}), func() { server.Close() }, nil
}

// loopEndpoint is an in-memory transport.Endpoint whose Send calls the
// peer's handler directly, so a Mux on top of it is timed alone.
type loopEndpoint struct {
	addr    string
	peer    *loopEndpoint
	handler transport.Handler
}

func newLoopPair() (a, b *loopEndpoint) {
	a, b = &loopEndpoint{addr: "a"}, &loopEndpoint{addr: "b"}
	a.peer, b.peer = b, a
	return a, b
}

func (e *loopEndpoint) Addr() string { return e.addr }
func (e *loopEndpoint) Send(_ string, payload []byte) error {
	if e.peer.handler == nil {
		return errors.New("loop endpoint: peer has no handler")
	}
	e.peer.handler(e.addr, payload)
	return nil
}
func (e *loopEndpoint) Broadcast(payload []byte) int {
	_ = e.Send(e.peer.addr, payload)
	return 1
}
func (e *loopEndpoint) Neighbors() []string            { return []string{e.peer.addr} }
func (e *loopEndpoint) SetHandler(h transport.Handler) { e.handler = h }
func (e *loopEndpoint) Close() error                   { return nil }

// simHostPair is two kernel hosts on a simulated LAN, accepting unsigned
// units as T3's disaster nodes do.
func simHostPair() (w *scenario.World, client, server *core.Host) {
	w = scenario.NewWorld(1)
	unsigned := func(c *core.Config) { c.Policy = security.Policy{AllowUnsigned: true} }
	server = w.AddHost("server", netsim.Position{}, netsim.LAN, unsigned)
	client = w.AddHost("client", netsim.Position{}, netsim.LAN, unsigned)
	return w, client, server
}

func numbered(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%05d", prefix, i)
	}
	return out
}

// scatter adds n nodes of class at uniform random positions on a square
// field and returns their IDs.
func scatter(net *netsim.Network, n int, field float64, class netsim.LinkClass, rng *rand.Rand) []string {
	ids := numbered("n", n)
	for _, id := range ids {
		net.AddNode(id, netsim.Position{X: rng.Float64() * field, Y: rng.Float64() * field}, class)
	}
	return ids
}

// festivalNet is T11's crowd without the middleware: 2000 lossless ad-hoc
// nodes, 40 m range, uniform on 1500 m.
func festivalNet(seed int64) (*netsim.Network, []string) {
	net := netsim.NewNetwork(netsim.NewSim(seed))
	class := netsim.AdHoc
	class.Range = festivalRange
	class.Loss = 0
	return net, scatter(net, festivalNodes, festivalField, class, rand.New(rand.NewSource(seed)))
}

// tickProbe times one mobility tick of a roaming crowd, per member: dense
// when pauses are short and everyone moves, sparse when most members are
// parked on the time wheel.
func tickProbe(name string, n int, field, speedMin, speedMax float64, pause time.Duration, workers int) probeDef {
	return probeDef{
		metrics: []probeMetric{nsMetric(name)},
		run: func(p *prober) ([]float64, error) {
			// The run keeps one hardware thread; the sharded engine gets its own.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			net := netsim.NewNetwork(netsim.NewSim(1))
			net.SetWorkers(workers)
			class := netsim.AdHoc
			class.Range = festivalRange
			ids := scatter(net, n, field, class, rand.New(rand.NewSource(1)))
			net.StartMobility(&netsim.RandomWaypoint{
				FieldW: field, FieldH: field, SpeedMin: speedMin, SpeedMax: speedMax, Pause: pause,
			}, time.Second, ids...)
			// Let the crowd reach its steady mix of moving and pausing members.
			net.Sim().RunFor(2 * pause)
			c := p.measure(name, func() int {
				net.Sim().RunFor(time.Second)
				return n
			})
			return []float64{c.ns}, nil
		},
	}
}

// crowdSpec declares an n-member beaconing, agent-hosting, roaming ad-hoc
// crowd — what T11 and T15 compile per resident.
func crowdSpec(n int, field float64) *scenario.Spec {
	return &scenario.Spec{
		Name:  "probe crowd",
		Field: scenario.Field{Width: field, Height: field},
		Populations: []scenario.Population{{
			Name: "a", Count: n, Place: scenario.PlaceUniform{},
			Link: netsim.AdHoc, Range: festivalRange,
			AllowUnsigned: true, Agents: true, MaxHops: 4096,
			ExtraCaps: scenario.GreedyGeoCaps,
			Beacon:    20 * time.Second,
			Ads:       []discovery.Ad{{Service: "presence"}},
			Mobility: &netsim.RandomWaypoint{FieldW: field, FieldH: field,
				SpeedMin: 1, SpeedMax: 5, Pause: 5 * time.Second},
			MobilityTick: time.Second,
		}},
	}
}

// reliableProbe times acked round trips between two adjacent ad-hoc nodes
// at T13's base loss (0.15) and reports how much of the sending was
// retransmission — the layer's wasted-work ratio.
func reliableProbe(p *prober) ([]float64, error) {
	w := scenario.NewWorld(1)
	class := netsim.AdHoc
	class.Loss = 0
	w.Net.AddNode("a", netsim.Position{}, class)
	w.Net.AddNode("b", netsim.Position{X: 10}, class)
	w.Net.ImpairAll(netsim.Impairment{Drop: 0.15})
	cfg := transport.ReliableConfig{Budget: 3, Timeout: 2 * time.Second} // T13's retry fault
	var rel [2]*transport.Reliable
	for i, name := range []string{"a", "b"} {
		ep, err := w.Transport.Endpoint(name)
		if err != nil {
			return nil, err
		}
		rel[i] = transport.NewReliable(ep, w.Sim, cfg)
	}
	a, b := rel[0], rel[1]
	b.SetHandler(func(from string, payload []byte) { _ = b.Send(from, payload) }) // Reliable.Send never fails
	a.SetHandler(func(string, []byte) {})
	payload := make([]byte, callReqBytes)
	c := p.measure("transport.reliable_rt", func() int {
		_ = a.Send("b", payload)
		w.Sim.RunFor(10 * time.Second) // room for the whole retry budget
		return 1
	})
	var sent, retries int64
	for _, r := range rel {
		st := r.Stats()
		sent += st.Sent
		retries += st.Retries
	}
	share := 0.0
	if sent+retries > 0 {
		share = float64(retries) / float64(sent+retries)
	}
	return []float64{c.ns, c.allocs, share}, nil
}
