package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logmob/internal/lmu"
	"logmob/internal/registry"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

// The kernel tape is one script of kernel operations, cut into rows, that
// runs over two hosts on each wire the kernel speaks: a lossless simulated
// network and loopback TCP. Each row checks its own expected outcome on both
// wires and writes a transcript: replies and error text, unit hashes, agents'
// data, what each host stores and both hosts' audit events, with addresses
// mapped to the roles "server" and "client" and timing left out. The two
// wires' transcripts must be equal, row by row.
//
// Both hosts' endpoints are scribblers, so every row is also a lending
// check: once a row settles, every payload either host was lent has been
// overwritten, and whatever a row reads back (a reply, a fetched or a stored
// unit) must still read as it was sent.

// scribbler wraps a host's endpoint and overwrites every payload it lends
// the host as soon as the handler returns, as the transport's next delivery
// would. It counts the frames its host sends and handles, so a row knows
// when nothing is left in flight between its two hosts, and signals moved
// (its rig's, shared by both hosts) after each frame it handles.
type scribbler struct {
	transport.Endpoint
	sent, handled atomic.Int64
	moved         chan struct{}
}

func (s *scribbler) Send(to string, payload []byte) error {
	s.sent.Add(1) // before the frame can be handled
	err := s.Endpoint.Send(to, payload)
	if err != nil {
		s.sent.Add(-1)
	}
	return err
}

func (s *scribbler) SetHandler(h transport.Handler) {
	s.Endpoint.SetHandler(func(from string, payload []byte) {
		h(from, payload)
		for i := range payload {
			payload[i] = 0xA5
		}
		s.handled.Add(1)
		select {
		case s.moved <- struct{}{}:
		default: // a signal is already pending
		}
	})
}

// auditLog keeps the events a host hands its audit sink, which calls it
// under the host's lock.
type auditLog []AuditEvent

func (l *auditLog) install(c *Config) {
	c.Audit = func(ev AuditEvent) { *l = append(*l, ev) }
}

// tapeRow is one row of the tape: its hosts' configuration beyond the
// tape's own, and its script, which checks its outcome and writes its
// transcript.
type tapeRow struct {
	name           string
	server, client func(*Config)
	run            func(r *tapeRig)
}

// roles names a rig's hosts by index.
var roles = [2]string{"server", "client"}

// tapeRig is one row's two kernels on one wire.
type tapeRig struct {
	t              *testing.T
	id             *security.Identity
	server, client *Host
	eps            [2]*scribbler // the server's, the client's
	moved          chan struct{} // one pending signal at most: see scribbler
	audits         [2]auditLog
	// advance runs the simulator; nil over TCP, where delivery runs by itself.
	advance func(d time.Duration)
	lines   []string
	made    map[string]*lmu.Unit // the last unit the row made under each name
}

// tapeWires builds a row's rig on each wire. Both sign with one identity,
// so a unit packs to the same bytes on both.
var tapeWires = []struct {
	name string
	rig  func(t *testing.T, id *security.Identity, row tapeRow) *tapeRig
}{
	{"sim", func(t *testing.T, id *security.Identity, row tapeRow) *tapeRig {
		w := newWorld(t)
		w.id = id
		r := &tapeRig{t: t, id: id, moved: make(chan struct{}, 1), advance: w.sim.RunFor}
		r.server = w.addHost(t, "server", r.config(0, row.server))
		r.client = w.addHost(t, "client", r.config(1, row.client))
		return r
	}},
	{"tcp", func(t *testing.T, id *security.Identity, row tapeRow) *tapeRig {
		trust := security.NewTrustStore()
		trust.TrustIdentity(id)
		r := &tapeRig{t: t, id: id, moved: make(chan struct{}, 1)}
		r.server = newTCPHost(t, trust, r.config(0, row.server))
		r.client = newTCPHost(t, trust, r.config(1, row.client))
		return r
	}},
}

// config returns the mutate that builds host i (see roles)
// on a scribbler, with an audit log, serving publishes, and then applies
// the row's own configuration.
func (r *tapeRig) config(i int, row func(*Config)) func(*Config) {
	return func(c *Config) {
		r.eps[i] = &scribbler{Endpoint: c.Endpoint, moved: r.moved}
		c.Endpoint = r.eps[i]
		c.ServePublish = true
		r.audits[i].install(c)
		if row != nil {
			row(c)
		}
	}
}

// TestKernelTapeOnSimAndTCP runs every row of kernelTape on both wires, then
// compares each row's two transcripts. Its name carries "TCP", so CI's
// repeated -race run of the package's TCP tests runs the tape.
func TestKernelTapeOnSimAndTCP(t *testing.T) {
	id := security.MustNewIdentity("publisher")
	transcripts := make([][][]string, len(tapeWires))
	for wi, w := range tapeWires {
		transcripts[wi] = make([][]string, len(kernelTape))
		t.Run(w.name, func(t *testing.T) {
			for ri, row := range kernelTape {
				t.Run(row.name, func(t *testing.T) {
					r := w.rig(t, id, row)
					row.run(r)
					r.settle()
					transcripts[wi][ri] = r.transcript()
				})
			}
		})
	}
	for ri, row := range kernelTape {
		sim, tcp := transcripts[0][ri], transcripts[1][ri]
		if sim != nil && tcp != nil && !slices.Equal(sim, tcp) {
			t.Errorf("%s: the wires' transcripts differ\nsim:\n\t%s\ntcp:\n\t%s",
				row.name, strings.Join(sim, "\n\t"), strings.Join(tcp, "\n\t"))
		}
	}
}

// runTapeRows runs the named rows of kernelTape, in the tape's order, on
// the named wire.
func runTapeRows(t *testing.T, wire string, names ...string) {
	id := security.MustNewIdentity("publisher")
	ran := 0
	for _, w := range tapeWires {
		if w.name != wire {
			continue
		}
		for _, row := range kernelTape {
			if !slices.Contains(names, row.name) {
				continue
			}
			ran++
			t.Run(row.name, func(t *testing.T) {
				r := w.rig(t, id, row)
				row.run(r)
				r.settle()
			})
		}
	}
	if ran != len(names) {
		t.Fatalf("ran %d of the rows %v on wire %q", ran, names, wire)
	}
}

// settle delivers what is in flight and returns once every frame either
// host sent has been handled, and so scribbled.
func (r *tapeRig) settle() {
	r.t.Helper()
	if r.advance != nil {
		r.advance(time.Second)
	}
	deadline := time.After(10 * time.Second)
	for !r.quiet() {
		if r.advance != nil {
			r.t.Fatal("a frame between the hosts was never delivered")
		}
		select {
		case <-r.moved:
		case <-deadline:
			r.t.Fatal("a frame between the hosts was never handled")
		}
	}
}

// quiet reports whether every frame sent has been handled. It loads the
// handled counts first: a frame is counted sent before it can be handled, so
// counts read in this order match only when nothing is in flight.
func (r *tapeRig) quiet() bool {
	handled := r.eps[0].handled.Load() + r.eps[1].handled.Load()
	return handled == r.eps[0].sent.Load()+r.eps[1].sent.Load()
}

// each runs fn(0..n-1): from n goroutines at once over TCP, in turn on
// the simulator, whose event loop is the test's goroutine.
func (r *tapeRig) each(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := range n {
		if r.advance != nil {
			fn(i)
			continue
		}
		wg.Add(1)
		go func() { defer wg.Done(); fn(i) }()
	}
	wg.Wait()
}

// settled starts one request, settles the row and returns what the
// request's callback got, which must have fired exactly once.
func settled[T any](r *tapeRig, start func(done func(T, error))) (T, error) {
	r.t.Helper()
	var v T
	var err error
	var calls atomic.Int32
	start(func(got T, e error) { v, err = got, e; calls.Add(1) })
	r.settle()
	if n := calls.Load(); n != 1 {
		r.t.Errorf("a callback fired %d times, want once", n)
	}
	return v, err
}

func (r *tapeRig) call(service string, args ...string) ([][]byte, error) {
	frames := make([][]byte, len(args))
	for i, a := range args {
		frames[i] = []byte(a)
	}
	return settled(r, func(done func([][]byte, error)) { r.client.Call(r.server.Addr(), service, frames, done) })
}

func (r *tapeRig) eval(u *lmu.Unit, args ...int64) ([]int64, error) {
	return settled(r, func(done func([]int64, error)) { r.client.Eval(r.server.Addr(), u, "main", args, done) })
}

func (r *tapeRig) fetch(name string) (*lmu.Unit, error) {
	return settled(r, func(done func(*lmu.Unit, error)) { r.client.Fetch(r.server.Addr(), name, "", done) })
}

// verdict sends u to the server with send (SendAgent or PublishTo).
func (r *tapeRig) verdict(send func(to string, u *lmu.Unit, done func(error)), u *lmu.Unit) error {
	_, err := settled(r, func(done func(struct{}, error)) {
		send(r.server.Addr(), u, func(err error) { done(struct{}{}, err) })
	})
	return err
}

// unit makes a signed unit of the given kind around src, an agent signed
// over its code only, and remembers it as what hosts must store under name.
func (r *tapeRig) unit(name string, kind lmu.Kind, src string, data map[string][]byte) *lmu.Unit {
	u := &lmu.Unit{
		Manifest: lmu.Manifest{Name: name, Version: "1.0", Kind: kind, Publisher: r.id.Name},
		Code:     vm.MustAssemble(src).Encode(),
		Data:     data,
	}
	if kind == lmu.KindAgent {
		r.id.SignCode(u)
	} else {
		r.id.Sign(u)
	}
	if r.made == nil {
		r.made = make(map[string]*lmu.Unit)
	}
	r.made[name] = u
	return u
}

func (r *tapeRig) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// errAny stands for "some error", for a row whose operation need only fail.
var errAny = errors.New("any error")

// outcome writes op's error to the transcript and checks it against want:
// nil, errAny, or an error err must wrap.
func (r *tapeRig) outcome(op string, err, want error) {
	r.t.Helper()
	r.logf("%s: %v", op, err)
	if want == errAny && err == nil || want != errAny && !errors.Is(err, want) {
		r.t.Errorf("%s: err = %v, want %v", op, err, want)
	}
}

func (r *tapeRig) wantStack(stack []int64, want ...int64) {
	r.t.Helper()
	r.logf("stack %v", stack)
	if !slices.Equal(stack, want) {
		r.t.Errorf("stack = %v, want %v", stack, want)
	}
}

// wantAudit checks that host i (see roles) recorded n events of kind.
func (r *tapeRig) wantAudit(i int, kind string, n int) {
	r.t.Helper()
	got := 0
	for _, ev := range r.audits[i] {
		if ev.Kind == kind {
			got++
		}
	}
	if got != n {
		r.t.Errorf("the %s recorded %d %q events, want %d: %+v", roles[i], got, kind, n, r.audits[i])
	}
}

// stored lists the names h stores.
func stored(h *Host) []string {
	var names []string
	if reg := h.storedRegistry(); reg != nil {
		for _, m := range reg.List() {
			names = append(names, m.Name)
		}
	}
	return names
}

// wantStored checks that h stores exactly the named units.
func (r *tapeRig) wantStored(h *Host, names ...string) {
	r.t.Helper()
	if got := stored(h); !slices.Equal(got, names) {
		r.t.Errorf("%s stores %v, want %v", h.Name(), got, names)
	}
}

// unitText names a unit and hashes its packed bytes.
func unitText(u *lmu.Unit) string {
	if u == nil {
		return "<nil>"
	}
	h := sha256.Sum256(u.Pack())
	return fmt.Sprintf("%s@%s:%x", u.Manifest.Name, u.Manifest.Version, h[:4])
}

// agentText names an agent and lists its data, keys in order. It copies, so
// it may be kept after the unit goes back to its host.
func agentText(u *lmu.Unit) string {
	s := u.Manifest.Name
	for _, k := range u.DataKeys() {
		s += fmt.Sprintf(" %s=%s", k, u.Data[k])
	}
	return s
}

// transcript checks that every unit either host stores packs to the bytes
// of the unit the row made under its name, and returns the row's transcript:
// its lines, then each host's stored units and audit events, with addresses
// mapped to roles.
func (r *tapeRig) transcript() []string {
	lines := r.lines
	for i, h := range []*Host{r.server, r.client} {
		role := roles[i]
		line := role + " stores"
		for _, name := range stored(h) {
			u, _ := h.storedRegistry().Get(name)
			if m := r.made[name]; m == nil || !bytes.Equal(u.Pack(), m.Pack()) {
				r.t.Errorf("the %s's stored %s is not the unit the row made: it changed when its payload was reused", role, name)
			}
			line += " " + unitText(u)
		}
		lines = append(lines, line)
		for _, ev := range r.audits[i] {
			lines = append(lines, fmt.Sprintf("%s audit: %s from %s %q ok=%v %q", role, ev.Kind, ev.Peer, ev.Subject, ev.OK, ev.Detail))
		}
	}
	// The longer address first, so neither is replaced inside the other.
	addrs := []string{r.server.Addr(), roles[0], r.client.Addr(), roles[1]}
	if len(addrs[2]) > len(addrs[0]) {
		addrs[0], addrs[1], addrs[2], addrs[3] = addrs[2], addrs[3], addrs[0], addrs[1]
	}
	toRoles := strings.NewReplacer(addrs...)
	for i, l := range lines {
		lines[i] = toRoles.Replace(l)
	}
	return lines
}

// Programs the rows run.
const (
	haltSrc   = ".entry main\nmain:\nhalt\n"
	decodeSrc = ".entry decode\ndecode:\npush 3\nmul\nhalt\n"
)

// payload is the data the lending rows' units carry, summed by blobSumSrc.
func payload() map[string][]byte { return map[string][]byte{"payload": {1, 2, 3, 4, 5}} }

// kernelTape is the tape's rows: Client/Server, Remote Evaluation, Code On
// Demand, Mobile Agents, messages and publishing, the lending rows, and
// every request on a closed host.
var kernelTape = []tapeRow{
	{name: "call_echo", run: func(r *tapeRig) {
		r.server.RegisterService("echo", func(from string, args [][]byte) ([][]byte, error) {
			return append([][]byte{[]byte(from)}, args...), nil
		})
		res, err := r.call("echo", "a", "b")
		r.outcome("call echo", err, nil)
		r.logf("reply %q", res)
		if len(res) != 3 || string(res[0]) != r.client.Addr() || string(res[1]) != "a" || string(res[2]) != "b" {
			r.t.Errorf("reply = %q, want the caller's address, a, b", res)
		}
		r.wantAudit(0, "call", 1)
	}},
	{name: "call_unknown_service", run: func(r *tapeRig) {
		_, err := r.call("ghost")
		r.outcome("call ghost", err, ErrNoService)
	}},
	{name: "call_service_error", run: func(r *tapeRig) {
		r.server.RegisterService("fail", func(string, [][]byte) ([][]byte, error) { return nil, errors.New("boom") })
		_, err := r.call("fail")
		r.outcome("call fail", err, ErrRemote)
	}},
	{name: "call_ten_concurrent", run: func(r *tapeRig) {
		r.server.RegisterService("id", func(_ string, args [][]byte) ([][]byte, error) { return args, nil })
		const n = 10
		var replies [n][][]byte
		var errs [n]error
		var fired [n]atomic.Int32
		r.each(n, func(i int) {
			arg := fmt.Sprintf("req-%d", i)
			r.client.Call(r.server.Addr(), "id", [][]byte{[]byte(arg)}, func(res [][]byte, err error) {
				replies[i], errs[i] = res, err
				fired[i].Add(1)
			})
		})
		r.settle()
		for i := range n {
			arg := fmt.Sprintf("req-%d", i)
			r.outcome("call id "+arg, errs[i], nil)
			r.logf("reply %q", replies[i])
			if fired[i].Load() != 1 || len(replies[i]) != 1 || string(replies[i][0]) != arg {
				r.t.Errorf("call %s: callback fired %d times with %q", arg, fired[i].Load(), replies[i])
			}
		}
		r.wantAudit(0, "call", n)
	}},
	{name: "eval_ok", run: func(r *tapeRig) {
		stack, err := r.eval(r.unit("job/add", lmu.KindRequest, addSrc, nil), 20, 22)
		r.outcome("eval job/add", err, nil)
		r.wantStack(stack, 42)
		r.wantAudit(0, "eval", 1)
	}},
	{name: "eval_switched_off", server: func(c *Config) { c.ServeEval = false }, run: func(r *tapeRig) {
		_, err := r.eval(r.unit("job/add", lmu.KindRequest, addSrc, nil), 1, 2)
		r.outcome("eval job/add", err, ErrRefused)
	}},
	{name: "eval_unsigned_on_strict_host", run: func(r *tapeRig) {
		u := r.unit("job/add", lmu.KindRequest, addSrc, nil)
		u.Sig = nil
		_, err := r.eval(u, 1, 2)
		r.outcome("eval unsigned job/add", err, ErrRemote)
		if a := r.audits[0]; len(a) != 1 || a[0].Kind != "verify-fail" || a[0].Subject != "job/add" {
			r.t.Errorf("server audit = %+v, want one verify-fail for job/add", a)
		}
	}},
	{name: "eval_fuel_bound", server: func(c *Config) { c.EvalFuel = 100 }, run: func(r *tapeRig) {
		_, err := r.eval(r.unit("job/spin", lmu.KindRequest, ".entry main\nmain:\nloop:\njmp loop\n", nil))
		r.outcome("eval job/spin", err, ErrRemote)
	}},
	{name: "eval_runtime_error", run: func(r *tapeRig) {
		_, err := r.eval(r.unit("job/div0", lmu.KindRequest, ".entry main\nmain:\npush 1\npush 0\ndiv\nhalt\n", nil))
		r.outcome("eval job/div0", err, ErrRemote)
	}},
	// Remote Evaluation links against the base capability set only: a job
	// importing an agent capability fails to link rather than running with
	// more authority than the host grants.
	{name: "eval_ungranted_capability", run: func(r *tapeRig) {
		_, err := r.eval(r.unit("job/ask", lmu.KindRequest, ".entry main\nmain:\nhost a_deliver\nhalt\n", nil))
		r.outcome("eval job/ask", err, ErrRemote)
	}},
	{name: "fetch_and_run", run: func(r *tapeRig) {
		if err := r.server.Publish(r.unit("codec/ogg", lmu.KindComponent, decodeSrc, nil)); err != nil {
			r.t.Fatal(err)
		}
		u, err := r.fetch("codec/ogg")
		r.outcome("fetch codec/ogg", err, nil)
		r.logf("fetched %s", unitText(u))
		if u == nil || u.Manifest.Version != "1.0" {
			r.t.Fatalf("fetched %s", unitText(u))
		}
		stack, err := r.client.RunComponent("codec/ogg", "decode", 14)
		r.outcome("run codec/ogg", err, nil)
		r.wantStack(stack, 42)
		r.wantAudit(1, "fetch-in", 1)
	}},
	{name: "ensure_hits_second_time", run: func(r *tapeRig) {
		if err := r.server.Publish(r.unit("codec/ogg", lmu.KindComponent, addSrc, nil)); err != nil {
			r.t.Fatal(err)
		}
		var hits []bool
		for i := range 2 {
			hit, err := settled(r, func(done func(bool, error)) {
				r.client.Ensure(r.server.Addr(), "codec/ogg", "", func(_ *lmu.Unit, hit bool, err error) { done(hit, err) })
			})
			r.outcome(fmt.Sprintf("ensure %d", i), err, nil)
			hits = append(hits, hit)
		}
		r.logf("hits %v", hits)
		if !slices.Equal(hits, []bool{false, true}) {
			r.t.Errorf("hits = %v, want [false true]", hits)
		}
		r.wantAudit(0, "fetch", 1) // the second Ensure is a cache hit
	}},
	{name: "fetch_unpublished", run: func(r *tapeRig) {
		// In the registry but not published: it must not be served.
		if err := r.server.Registry().Put(r.unit("secret/tool", lmu.KindComponent, addSrc, nil)); err != nil {
			r.t.Fatal(err)
		}
		_, err := r.fetch("secret/tool")
		r.outcome("fetch secret/tool", err, ErrNotFound)
	}},
	{name: "fetch_tampered", run: func(r *tapeRig) {
		u := r.unit("codec/bad", lmu.KindComponent, addSrc, nil)
		u.Data = map[string][]byte{"extra": {1}} // changed after signing
		if err := r.server.Publish(u); err != nil {
			r.t.Fatal(err)
		}
		_, err := r.fetch("codec/bad")
		r.outcome("fetch codec/bad", err, errAny)
		r.wantStored(r.client)
		r.wantAudit(1, "verify-fail", 1)
	}},
	{name: "fetch_over_registry_quota", client: func(c *Config) {
		c.Registry = registry.New(10, registry.WithClock(c.Scheduler.Now))
	}, run: func(r *tapeRig) {
		if err := r.server.Publish(r.unit("big/unit", lmu.KindComponent, addSrc, nil)); err != nil {
			r.t.Fatal(err)
		}
		_, err := r.fetch("big/unit")
		r.outcome("fetch big/unit", err, registry.ErrQuotaExceeded)
	}},
	// An agent goes to the server and comes back: each host's runtime starts
	// it, the server's sends it home with a mark of its own.
	{name: "agent_out_and_back", run: func(r *tapeRig) {
		agent := r.unit("agent/x", lmu.KindAgent, haltSrc, map[string][]byte{"k": []byte("v"), "home": []byte(r.client.Addr())})
		var there, back string
		var returned error
		var acks atomic.Int32
		r.server.SetAgentRuntime(startAll(func(u *lmu.Unit) {
			there = agentText(u)
			u.Data["via"] = []byte(r.server.Addr())
			r.server.SendAgent(string(u.Data["home"]), u, func(err error) { returned = err; acks.Add(1) })
			r.server.RecycleAgent(u)
		}))
		r.client.SetAgentRuntime(startAll(func(u *lmu.Unit) {
			back = agentText(u)
			r.client.RecycleAgent(u)
		}))
		r.outcome("send agent/x", r.verdict(r.client.SendAgent, agent), nil)
		r.outcome("send agent/x home", returned, nil)
		r.logf("arrived %s", there)
		r.logf("returned %s", back)
		if want := "agent/x home=" + r.client.Addr() + " k=v"; there != want {
			r.t.Errorf("arrived %q, want %q", there, want)
		}
		if want := "agent/x home=" + r.client.Addr() + " k=v via=" + r.server.Addr(); back != want || acks.Load() != 1 {
			r.t.Errorf("returned %q with %d acks, want %q with one", back, acks.Load(), want)
		}
		r.wantAudit(0, "agent", 1)
		r.wantAudit(1, "agent", 1)
	}},
	{name: "agent_without_runtime", run: func(r *tapeRig) {
		err := r.verdict(r.client.SendAgent, r.unit("agent/x", lmu.KindAgent, haltSrc, nil))
		r.outcome("send agent/x", err, ErrRefused)
	}},
	{name: "agent_not_an_agent", run: func(r *tapeRig) {
		r.server.SetAgentRuntime(startAll(func(u *lmu.Unit) { r.t.Errorf("the runtime started %s", u.Manifest.Name) }))
		err := r.verdict(r.client.SendAgent, r.unit("not/agent", lmu.KindComponent, addSrc, nil))
		r.outcome("send not/agent", err, errAny)
	}},
	{name: "message", run: func(r *tapeRig) {
		var got string
		r.server.OnMessage(func(from, topic string, data []byte) { got = fmt.Sprintf("%s %s %s", from, topic, data) })
		r.outcome("message", r.client.SendMessage(r.server.Addr(), "sms", []byte("hello")), nil)
		r.settle()
		r.logf("delivered %s", got)
		if want := r.client.Addr() + " sms hello"; got != want {
			r.t.Errorf("delivered %q, want %q", got, want)
		}
		r.wantAudit(0, "message", 1)
	}},
	{name: "publish_refused", server: func(c *Config) { c.ServePublish = false }, run: func(r *tapeRig) {
		err := r.verdict(r.client.PublishTo, r.unit("codec/push", lmu.KindComponent, addSrc, nil))
		r.outcome("publish codec/push", err, ErrRefused)
		r.wantStored(r.server)
	}},
	// The lending rows drive each arrival that decodes a unit from a lent
	// payload and check that nothing the kernel handed out or kept changed
	// when that payload was scribbled. An eval keeps nothing, so a kernel
	// that stored its request unit fails its row; the second eval runs the
	// program the first cached from a payload scribbled since.
	{name: "lend_eval", run: func(r *tapeRig) {
		job := r.unit("job/sum", lmu.KindRequest, blobSumSrc, payload())
		for i := range 2 {
			stack, err := r.eval(job)
			r.outcome(fmt.Sprintf("eval %d", i), err, nil)
			r.wantStack(stack, 1, 15)
		}
		r.wantStored(r.server)
	}},
	{name: "lend_fetch", run: func(r *tapeRig) {
		if err := r.server.Publish(r.unit("codec/sum", lmu.KindComponent, blobSumSrc, payload())); err != nil {
			r.t.Fatal(err)
		}
		u, err := r.fetch("codec/sum")
		r.outcome("fetch codec/sum", err, nil)
		r.logf("fetched %s", unitText(u))
		if kept, _ := r.client.Registry().Get("codec/sum"); kept != u {
			r.t.Error("the client stores another unit than the one Fetch handed out")
		}
		stack, err := r.client.RunComponent("codec/sum", "main")
		r.outcome("run codec/sum", err, nil)
		r.wantStack(stack, 1, 15)
		r.wantStored(r.client, "codec/sum")
	}},
	{name: "lend_publish", run: func(r *tapeRig) {
		err := r.verdict(r.client.PublishTo, r.unit("codec/upload", lmu.KindComponent, blobSumSrc, payload()))
		r.outcome("publish codec/upload", err, nil)
		r.wantStored(r.server, "codec/upload")
		r.wantStored(r.client)
	}},
	// Once Close returns, each kind of request calls back before it
	// returns, once, with an error that wraps transport.ErrClosed: nothing
	// leaves, so the remote serves nothing and no timeout fires later. A
	// closed host takes no request at all: the table Close emptied stays nil.
	{name: "closed_host", run: func(r *tapeRig) {
		r.server.RegisterService("echo", func(_ string, args [][]byte) ([][]byte, error) { return args, nil })
		unit := r.unit("adder", lmu.KindComponent, addSrc, nil)
		if err := r.server.Publish(unit); err != nil {
			r.t.Fatal(err)
		}
		if err := r.client.Close(); err != nil {
			r.t.Fatal(err)
		}
		c, to := r.client, r.server.Addr()
		requests := []struct {
			name string
			send func(done func(error))
		}{
			{"call", func(done func(error)) { c.Call(to, "echo", nil, func(_ [][]byte, err error) { done(err) }) }},
			{"eval", func(done func(error)) {
				c.Eval(to, unit, "main", []int64{1, 2}, func(_ []int64, err error) { done(err) })
			}},
			{"fetch", func(done func(error)) { c.Fetch(to, "adder", "", func(_ *lmu.Unit, err error) { done(err) }) }},
			{"send agent", func(done func(error)) { c.SendAgent(to, unit, done) }},
			{"publish", func(done func(error)) { c.PublishTo(to, unit, done) }},
			{"message", func(done func(error)) { done(c.SendMessage(to, "sms", nil)) }},
		}
		calls := make([]int, len(requests))
		for i, q := range requests {
			var got error
			q.send(func(err error) { calls[i]++; got = err })
			r.outcome(q.name+" on a closed host", got, transport.ErrClosed)
			if calls[i] != 1 {
				r.t.Errorf("%s on a closed host: %d callbacks before it returned, want one", q.name, calls[i])
			}
		}
		if r.advance != nil {
			r.advance(time.Minute) // well past the request timeout
		}
		for i, q := range requests {
			if calls[i] != 1 {
				r.t.Errorf("%s called back %d times", q.name, calls[i])
			}
		}
		if _, _, _, _, pending := held(c); pending {
			r.t.Error("a closed host took request records")
		}
		if len(r.audits[0]) != 0 {
			r.t.Errorf("the remote of a closed host served %+v", r.audits[0])
		}
	}},
}
