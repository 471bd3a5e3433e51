package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"logmob/internal/agent"
	"logmob/internal/app"
	"logmob/internal/core"
	"logmob/internal/lmu"
	"logmob/internal/scenario"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/vm"
	"logmob/internal/wire"
)

// opKind is one middleware interaction of the wire workloads.
type opKind uint8

const (
	opCall    opKind = iota // CS: sink call, 200 B request, 1000 B reply
	opEval                  // REV: ship the signed unit, get the stack back
	opFetch                 // COD: fetch the published unit (+ local runs)
	opAgent                 // MA: out-and-back agent carrying 600 B of state
	opPublish               // COD write side: PublishTo, server verifies and stores
)

// T1's byte shapes, as cmd/logmobd's bench replays them.
const (
	callReqBytes   = 200
	callReplyBytes = 1000
	agentStateSize = 600
	codecSamples   = 8 // argument of the codec's decode entry
)

// wireSpec sizes one wire workload. A round is roundOps ops in exactly the
// listed proportions, shuffled by the seed, issued by window workers over
// one TCP connection: a closed loop, each worker sending its next op only
// when the previous one is verified.
type wireSpec struct {
	window    int
	unitBytes int // coefficient-table size of the signed codec unit
	warmOps   int // untimed ops a set-up runs before the fixture counts as ready
	setUps    int // set-ups a run makes
	fetchRuns int // local RunComponent calls after each fetch
	mix       []mixPart
}

type mixPart struct {
	kind  opKind
	count int
}

var wireSpecs = map[string]wireSpec{
	"wire_mix": {window: 8, unitBytes: 3000, fetchRuns: 4, warmOps: 12000, setUps: 9,
		mix: []mixPart{{opCall, 420}, {opEval, 60}, {opFetch, 60}, {opAgent, 60}}},
	"wire_bulk": {window: 4, unitBytes: 256 << 10, warmOps: 400, setUps: 9,
		mix: []mixPart{{opFetch, 20}, {opPublish, 10}, {opEval, 10}}},
}

func (s wireSpec) roundOps() int {
	n := 0
	for _, p := range s.mix {
		n += p.count
	}
	return n
}

// shuffled returns one round's op sequence.
func (s wireSpec) shuffled(rng *rand.Rand) []opKind {
	kinds := make([]opKind, 0, s.roundOps())
	for _, p := range s.mix {
		for i := 0; i < p.count; i++ {
			kinds = append(kinds, p.kind)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// opTimeout bounds one op; an op that times out has failed.
const opTimeout = 10 * time.Second

// opDoer performs one op on behalf of worker and returns its failure.
type opDoer interface {
	do(kind opKind, worker int, tr *tracer, parent int, op int64) error
}

// runWindow issues kinds through d with window ops in flight and returns
// each op's latency in seconds, the failures and the first error.
func runWindow(d opDoer, kinds []opKind, window int, lat []float64, tr *tracer, opBase int64) (int, error) {
	var (
		next   atomic.Int64
		failed atomic.Int64
		wg     sync.WaitGroup
		errMu  sync.Mutex
		first  error
	)
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(kinds)) {
					return
				}
				op := opBase + i
				t0 := time.Now()
				id := tr.begin("op", -1, op)
				err := d.do(kinds[i], worker, tr, id, op)
				tr.end(id)
				lat[i] = time.Since(t0).Seconds()
				if err != nil {
					failed.Add(1)
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return int(failed.Load()), first
}

// wireWork is a wire workload at full depth: two core.Hosts over loopback
// TCP, every unit signed and verified against a TrustStore.
type wireWork struct {
	spec wireSpec

	cep, sep       *transport.TCPEndpoint
	client, server *core.Host
	plat           *agent.Platform

	codec, job, upload, agentTmpl *lmu.Unit
	codecHash                     [32]byte
	wantStack                     []int64
	sinkReq                       [][]byte

	// platMu orders the workers' use of plat against the client's
	// deliveries: agent.Platform is not safe for concurrent use, and a
	// returning agent is still inside it when its record is announced.
	platMu sync.Mutex
	// agentMu admits one agent at a time: agent.Platform runs agents inline
	// and is not safe for the concurrent Spawn a window would give it.
	agentMu   sync.Mutex
	agentDone chan agent.Record
	replies   []chan error // one per worker

	lat   []float64
	opSeq int64
}

func newWireWork(name string) (*wireWork, error) {
	spec, ok := wireSpecs[name]
	if !ok {
		return nil, fmt.Errorf("no wire workload %q", name)
	}
	return &wireWork{spec: spec}, nil
}

// wireAgentProgram is T1's out-and-back agent: visit the one host on the
// itinerary, return home, halt.
var wireAgentProgram = vm.MustAssemble(`
.entry main
main:
	push 0
	host a_itin_select
	jz done
	host a_migrate
	pop
	host a_select_dest
	jz done
	host a_migrate
	pop
done:
	halt
`)

// serialEndpoint delivers every message under mu, so that a goroutine
// holding mu excludes itself from everything a delivery does.
type serialEndpoint struct {
	transport.Endpoint
	mu *sync.Mutex
}

func (e serialEndpoint) SetHandler(h transport.Handler) {
	e.Endpoint.SetHandler(func(from string, payload []byte) {
		e.mu.Lock()
		defer e.mu.Unlock()
		h(from, payload)
	})
}

// newTCPHost listens on loopback and puts a kernel host on the endpoint;
// deliveries run under serial when it is not nil.
func newTCPHost(trust *security.TrustStore, serial *sync.Mutex) (*transport.TCPEndpoint, *core.Host, error) {
	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	var under transport.Endpoint = ep
	if serial != nil {
		under = serialEndpoint{ep, serial}
	}
	h, err := core.NewHost(core.Config{
		Endpoint: under, Scheduler: transport.NewWallScheduler(),
		Trust: trust, ServeEval: true, ServePublish: true,
	})
	if err != nil {
		ep.Close()
		return nil, nil, err
	}
	return ep, h, nil
}

func (w *wireWork) setUps() int { return w.spec.setUps }

// setUp brings both hosts up, publishes the units and runs one untimed
// warm-up round, which also dials the connection.
func (w *wireWork) setUp() error {
	if err := w.start(); err != nil {
		return err
	}
	warm := w.spec.shuffled(rand.New(rand.NewSource(0)))
	for done := 0; done < w.spec.warmOps; done += len(warm) {
		if failed, err := runWindow(w, warm, w.spec.window, w.lat, nil, 0); failed > 0 {
			return fmt.Errorf("warm-up: %d of %d ops failed: %w", failed, len(warm), err)
		}
	}
	return nil
}

// start builds the fixture without warming it up.
func (w *wireWork) start() error {
	id, err := security.NewIdentity("bench-publisher")
	if err != nil {
		return err
	}
	trust := security.NewTrustStore()
	trust.TrustIdentity(id)
	if w.sep, w.server, err = newTCPHost(trust, nil); err != nil {
		return err
	}
	if w.cep, w.client, err = newTCPHost(trust, &w.platMu); err != nil {
		return err
	}
	w.server.RegisterService(scenario.SinkServiceName, scenario.SinkService())
	agent.NewPlatform(w.server, agent.Env{})
	w.agentDone = make(chan agent.Record, 1)
	w.plat = agent.NewPlatform(w.client, agent.Env{OnDone: func(r agent.Record) { w.agentDone <- r }})

	w.codec = app.BuildCodec(id, "bench", "1.0", w.spec.unitBytes)
	w.codecHash = w.codec.Hash()
	if err := w.server.Publish(w.codec); err != nil {
		return err
	}
	w.job = w.codec.Clone()
	w.job.Manifest.Kind = lmu.KindRequest
	id.Sign(w.job)
	w.upload = app.BuildCodec(id, "bench-upload", "1.0", w.spec.unitBytes)
	w.agentTmpl = &lmu.Unit{
		Manifest: lmu.Manifest{Name: "roundtrip", Version: "1.0", Kind: lmu.KindAgent, Publisher: id.Name},
		Code:     wireAgentProgram.Encode(),
		Data: map[string][]byte{
			agent.KeyDest:      []byte(w.client.Addr()),
			agent.KeyItinerary: agent.EncodeItinerary([]string{w.server.Addr()}),
			"state":            make([]byte, agentStateSize),
		},
	}
	id.SignCode(w.agentTmpl)

	// The reference result every eval and local run must reproduce.
	if err := w.client.Registry().Put(w.codec); err != nil {
		return err
	}
	if w.wantStack, err = w.client.RunComponent(w.codec.Manifest.Name, "decode", codecSamples); err != nil {
		return err
	}

	b := wire.GetBuffer()
	b.PutUint(callReplyBytes)
	b.PutRaw(make([]byte, callReqBytes-b.Len()))
	w.sinkReq = [][]byte{append([]byte(nil), b.Bytes()...)}
	wire.PutBuffer(b)

	w.replies = make([]chan error, w.spec.window)
	for i := range w.replies {
		w.replies[i] = make(chan error, 1)
	}
	w.lat = make([]float64, w.spec.roundOps())
	return nil
}

func (w *wireWork) tearDown() {
	if w.client != nil {
		w.client.Close()
		w.cep.Close()
	}
	if w.server != nil {
		w.server.Close()
		w.sep.Close()
	}
	w.client, w.server = nil, nil
}

func (w *wireWork) netBytes() int64 {
	c, s := w.cep.Usage(), w.sep.Usage()
	return c.BytesSent + c.BytesRecv + s.BytesSent + s.BytesRecv
}

func (w *wireWork) round(rng *rand.Rand, m *meter, tr *tracer) roundOutcome {
	kinds := w.spec.shuffled(rng)
	out := roundOutcome{ops: len(kinds)}
	net0 := w.netBytes()
	m.timed(func() {
		out.failed, out.err = runWindow(w, kinds, w.spec.window, w.lat, tr, w.opSeq)
	})
	w.opSeq += int64(len(kinds))
	out.netBytes = w.netBytes() - net0
	out.opWall = median(w.lat)
	return out
}

func sameStack(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// do performs one verified middleware interaction.
func (w *wireWork) do(kind opKind, worker int, tr *tracer, parent int, op int64) error {
	server := w.server.Addr()
	reply := w.replies[worker]
	switch kind {
	case opCall:
		id := tr.begin("cs.call", parent, op)
		w.client.Call(server, scenario.SinkServiceName, w.sinkReq, func(res [][]byte, err error) {
			if err == nil && (len(res) != 1 || len(res[0]) != callReplyBytes) {
				err = fmt.Errorf("call: reply of %d frames, want one of %d bytes", len(res), callReplyBytes)
			}
			reply <- err
		})
		err := <-reply
		tr.end(id)
		return err
	case opEval:
		id := tr.begin("rev.eval", parent, op)
		w.client.Eval(server, w.job, "decode", []int64{codecSamples}, func(stack []int64, err error) {
			if err == nil && !sameStack(stack, w.wantStack) {
				err = fmt.Errorf("eval: stack %v, want %v", stack, w.wantStack)
			}
			reply <- err
		})
		err := <-reply
		tr.end(id)
		return err
	case opFetch:
		id := tr.begin("cod.fetch", parent, op)
		w.client.Fetch(server, w.codec.Manifest.Name, "", func(u *lmu.Unit, err error) {
			if err == nil && u.Hash() != w.codecHash {
				err = errors.New("fetch: unit hash differs from the published unit's")
			}
			reply <- err
		})
		err := <-reply
		tr.end(id)
		if err != nil {
			return err
		}
		for i := 0; i < w.spec.fetchRuns; i++ {
			id := tr.begin("cod.run", parent, op)
			stack, err := w.client.RunComponent(w.codec.Manifest.Name, "decode", codecSamples)
			tr.end(id)
			if err != nil {
				return err
			}
			if !sameStack(stack, w.wantStack) {
				return fmt.Errorf("run: stack %v, want %v", stack, w.wantStack)
			}
		}
		return nil
	case opPublish:
		id := tr.begin("cod.publish", parent, op)
		w.client.PublishTo(server, w.upload, func(err error) { reply <- err })
		err := <-reply
		tr.end(id)
		return err
	case opAgent:
		id := tr.begin("ma.roundtrip", parent, op)
		defer tr.end(id)
		w.agentMu.Lock()
		defer w.agentMu.Unlock()
		w.platMu.Lock()
		_, err := w.plat.SpawnUnit(w.agentTmpl.Clone(), "main")
		w.platMu.Unlock()
		if err != nil {
			return err
		}
		select {
		case rec := <-w.agentDone:
			if rec.Status != agent.StatusCompleted || rec.Hops != 2 {
				return fmt.Errorf("agent: status %d after %d hops (%s), want completed after 2", rec.Status, rec.Hops, rec.Detail)
			}
			return nil
		case <-time.After(opTimeout):
			return errors.New("agent: no record within the op timeout")
		}
	}
	return fmt.Errorf("unknown op kind %d", kind)
}

// echoWork replays a wire workload's op sequence below core: the same
// windowed closed loop over raw TCPEndpoints (or Mux channels on them),
// echoing payloads sized like core's frames, so the gap between two depths
// of the ladder is one layer's self time.
type echoWork struct {
	spec     wireSpec
	mux      bool
	cep, sep *transport.TCPEndpoint
	cch, sch transport.Endpoint // what the ops send on: the endpoints or their kernel channels
	replies  []chan struct{}
	bufs     [][]byte // one request buffer per worker
	lat      []float64
	legs     map[opKind][]echoLeg
}

// echoLeg is one request/reply exchange of an op.
type echoLeg struct{ req, reply int }

// echoHeader is the worker index plus the wanted reply size.
const echoHeader = 5

func (e *echoWork) setUp(unitSize, agentSize int) error {
	var err error
	if e.sep, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
		return err
	}
	if e.cep, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
		return err
	}
	e.cch, e.sch = e.cep, e.sep
	if e.mux {
		e.cch = transport.NewMux(e.cep).Channel(transport.ChanKernel)
		e.sch = transport.NewMux(e.sep).Channel(transport.ChanKernel)
	}
	const hdr = 24 // allowance for core's message header
	e.legs = map[opKind][]echoLeg{
		opCall:    {{callReqBytes + hdr, callReplyBytes + hdr}},
		opEval:    {{unitSize + hdr, hdr}},
		opFetch:   {{hdr, unitSize + hdr}},
		opPublish: {{unitSize + hdr, hdr}},
		opAgent:   {{agentSize + hdr, hdr}, {hdr, agentSize + hdr}},
	}
	biggest := unitSize + hdr
	replyBuf := make([]byte, biggest)
	e.sch.SetHandler(func(from string, p []byte) {
		if len(p) < echoHeader {
			return
		}
		n := int(binary.BigEndian.Uint32(p[1:echoHeader]))
		if n < 1 || n > len(replyBuf) {
			return
		}
		replyBuf[0] = p[0]
		_ = e.sch.Send(from, replyBuf[:n]) // a lost reply times the op out
	})
	e.lat = make([]float64, e.spec.roundOps())
	e.replies = make([]chan struct{}, e.spec.window)
	e.bufs = make([][]byte, e.spec.window)
	for i := range e.replies {
		e.replies[i] = make(chan struct{}, 1)
		e.bufs[i] = make([]byte, biggest)
	}
	e.cch.SetHandler(func(_ string, p []byte) {
		if len(p) > 0 && int(p[0]) < len(e.replies) {
			e.replies[p[0]] <- struct{}{}
		}
	})
	return nil
}

func (e *echoWork) tearDown() {
	e.cep.Close()
	e.sep.Close()
}

func (e *echoWork) round(rng *rand.Rand, m *meter) roundOutcome {
	kinds := e.spec.shuffled(rng)
	out := roundOutcome{ops: len(kinds)}
	m.timed(func() { out.failed, out.err = runWindow(e, kinds, e.spec.window, e.lat, nil, 0) })
	out.opWall = median(e.lat)
	return out
}

func (e *echoWork) do(kind opKind, worker int, _ *tracer, _ int, _ int64) error {
	buf := e.bufs[worker]
	for _, leg := range e.legs[kind] {
		buf[0] = byte(worker)
		binary.BigEndian.PutUint32(buf[1:echoHeader], uint32(leg.reply))
		if err := e.cch.Send(e.sep.Addr(), buf[:leg.req]); err != nil {
			return err
		}
		select {
		case <-e.replies[worker]:
		case <-time.After(opTimeout):
			return errors.New("echo: no reply within the op timeout")
		}
	}
	return nil
}
