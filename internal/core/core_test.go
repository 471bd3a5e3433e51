package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"logmob/internal/lmu"
	"logmob/internal/netsim"
	"logmob/internal/registry"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

// world is a simulated test fixture of interconnected hosts.
type world struct {
	sim   *netsim.Sim
	net   *netsim.Network
	sn    *transport.SimNetwork
	hosts map[string]*Host
	id    *security.Identity
}

func newWorld(t *testing.T) *world {
	t.Helper()
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	return &world{
		sim:   sim,
		net:   net,
		sn:    transport.NewSimNetwork(net),
		hosts: make(map[string]*Host),
		id:    security.MustNewIdentity("publisher"),
	}
}

// addHost creates a host on a lossless WLAN node at the origin.
func (w *world) addHost(t *testing.T, name string, mutate func(*Config)) *Host {
	t.Helper()
	class := netsim.WLAN
	class.Loss = 0
	w.net.AddNode(name, netsim.Position{}, class)
	ep, err := w.sn.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	trust := security.NewTrustStore()
	trust.TrustIdentity(w.id)
	cfg := Config{
		Name:      name,
		Endpoint:  ep,
		Scheduler: w.sim,
		Trust:     trust,
		ServeEval: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h, err := NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.hosts[name] = h
	return h
}

// auditLog keeps the events a host hands its audit sink. Pass install as
// addHost's mutate, or call it from one.
type auditLog []AuditEvent

func (l *auditLog) install(c *Config) {
	c.Audit = func(ev AuditEvent) { *l = append(*l, ev) }
}

// count counts the recorded events of kind.
func (l auditLog) count(kind string) int {
	n := 0
	for _, ev := range l {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// addProg builds a signed component unit around the given assembly.
func (w *world) signedProgram(name, src string) *lmu.Unit {
	u := &lmu.Unit{
		Manifest: lmu.Manifest{
			Name: name, Version: "1.0", Kind: lmu.KindComponent, Publisher: w.id.Name,
		},
		Code: vm.MustAssemble(src).Encode(),
	}
	w.id.Sign(u)
	return u
}

const addSrc = `
.entry main
main:
	add
	halt
`

func TestCallRoundTrip(t *testing.T) {
	w := newWorld(t)
	var audit auditLog
	server := w.addHost(t, "server", audit.install)
	client := w.addHost(t, "client", nil)

	server.RegisterService("echo", func(from string, args [][]byte) ([][]byte, error) {
		out := [][]byte{[]byte(from)}
		return append(out, args...), nil
	})

	var results [][]byte
	var callErr error
	client.Call("server", "echo", [][]byte{[]byte("a"), []byte("b")}, func(r [][]byte, err error) {
		results, callErr = r, err
	})
	w.sim.RunFor(time.Second)

	if callErr != nil {
		t.Fatalf("Call: %v", callErr)
	}
	if len(results) != 3 || string(results[0]) != "client" || string(results[1]) != "a" {
		t.Errorf("results = %q", results)
	}
	if n := audit.count("call"); n != 1 {
		t.Errorf("server audited %d calls, want 1", n)
	}
}

func TestCallNoSuchService(t *testing.T) {
	w := newWorld(t)
	w.addHost(t, "server", nil)
	client := w.addHost(t, "client", nil)
	var got error
	client.Call("server", "ghost", nil, func(_ [][]byte, err error) { got = err })
	w.sim.RunFor(time.Second)
	if !errors.Is(got, ErrNoService) {
		t.Fatalf("err = %v, want ErrNoService", got)
	}
}

func TestCallServiceError(t *testing.T) {
	w := newWorld(t)
	server := w.addHost(t, "server", nil)
	client := w.addHost(t, "client", nil)
	server.RegisterService("fail", func(string, [][]byte) ([][]byte, error) {
		return nil, errors.New("boom")
	})
	var got error
	client.Call("server", "fail", nil, func(_ [][]byte, err error) { got = err })
	w.sim.RunFor(time.Second)
	if got == nil || !errors.Is(got, ErrRemote) {
		t.Fatalf("err = %v, want wrapped ErrRemote", got)
	}
}

func TestCallTimeout(t *testing.T) {
	w := newWorld(t)
	client := w.addHost(t, "client", func(c *Config) { c.RequestTimeout = 2 * time.Second })
	w.addHost(t, "server", nil)
	w.net.SetUp("server", false) // server vanishes after handshake world setup

	var got error
	called := 0
	client.Call("server", "echo", nil, func(_ [][]byte, err error) { got = err; called++ })
	w.sim.RunFor(10 * time.Second)
	if called != 1 {
		t.Fatalf("callback fired %d times", called)
	}
	// Send fails fast (unreachable), which is also acceptable; timeout path
	// needs the send to succeed but no reply. Either way an error arrives.
	if got == nil {
		t.Fatal("expected error")
	}
}

func TestCallTimeoutWithSilentPeer(t *testing.T) {
	w := newWorld(t)
	client := w.addHost(t, "client", func(c *Config) { c.RequestTimeout = 2 * time.Second })
	// A raw node that receives but never answers.
	class := netsim.WLAN
	class.Loss = 0
	w.net.AddNode("mute", netsim.Position{}, class)
	w.net.SetHandler("mute", func(string, []byte) {})

	var got error
	called := 0
	client.Call("mute", "echo", nil, func(_ [][]byte, err error) { got = err; called++ })
	w.sim.RunFor(10 * time.Second)
	if !errors.Is(got, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", got)
	}
	if called != 1 || len(client.reqs) != 0 {
		t.Errorf("callback fired %d times, %d requests pending; want 1 and 0", called, len(client.reqs))
	}
}

func TestEvalRoundTrip(t *testing.T) {
	w := newWorld(t)
	w.addHost(t, "server", nil)
	client := w.addHost(t, "client", nil)
	unit := w.signedProgram("job/add", addSrc)
	unit.Manifest.Kind = lmu.KindRequest
	w.id.Sign(unit)

	var stack []int64
	var evalErr error
	client.Eval("server", unit, "main", []int64{20, 22}, func(s []int64, err error) {
		stack, evalErr = s, err
	})
	w.sim.RunFor(time.Second)
	if evalErr != nil {
		t.Fatalf("Eval: %v", evalErr)
	}
	if len(stack) != 1 || stack[0] != 42 {
		t.Errorf("stack = %v", stack)
	}
}

func TestEvalRefusedWhenDisabled(t *testing.T) {
	w := newWorld(t)
	w.addHost(t, "server", func(c *Config) { c.ServeEval = false })
	client := w.addHost(t, "client", nil)
	unit := w.signedProgram("job/add", addSrc)

	var got error
	client.Eval("server", unit, "main", []int64{1, 2}, func(_ []int64, err error) { got = err })
	w.sim.RunFor(time.Second)
	if !errors.Is(got, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", got)
	}
}

func TestEvalRejectsUnsigned(t *testing.T) {
	w := newWorld(t)
	var audit auditLog
	w.addHost(t, "server", audit.install)
	client := w.addHost(t, "client", nil)
	unit := w.signedProgram("job/add", addSrc)
	unit.Sig = nil // strip signature

	var got error
	client.Eval("server", unit, "main", []int64{1, 2}, func(_ []int64, err error) { got = err })
	w.sim.RunFor(time.Second)
	if got == nil {
		t.Fatal("unsigned eval accepted")
	}
	// The rejection is in the audit log, once.
	if len(audit) != 1 || audit[0].Kind != "verify-fail" || audit[0].Subject != "job/add" {
		t.Errorf("audit = %+v, want one verify-fail for job/add", audit)
	}
}

func TestEvalFuelBound(t *testing.T) {
	w := newWorld(t)
	w.addHost(t, "server", func(c *Config) { c.EvalFuel = 100 })
	client := w.addHost(t, "client", nil)
	unit := w.signedProgram("job/spin", ".entry main\nmain:\nloop:\njmp loop\n")

	var got error
	client.Eval("server", unit, "main", nil, func(_ []int64, err error) { got = err })
	w.sim.RunFor(time.Second)
	if got == nil {
		t.Fatal("runaway eval not bounded")
	}
}

func TestEvalRuntimeErrorReported(t *testing.T) {
	w := newWorld(t)
	w.addHost(t, "server", nil)
	client := w.addHost(t, "client", nil)
	unit := w.signedProgram("job/div0", ".entry main\nmain:\npush 1\npush 0\ndiv\nhalt\n")
	var got error
	client.Eval("server", unit, "main", nil, func(_ []int64, err error) { got = err })
	w.sim.RunFor(time.Second)
	if got == nil || !errors.Is(got, ErrRemote) {
		t.Fatalf("err = %v, want remote runtime error", got)
	}
}

func TestPublishFetchRun(t *testing.T) {
	w := newWorld(t)
	server := w.addHost(t, "server", nil)
	var audit auditLog
	device := w.addHost(t, "device", audit.install)
	unit := w.signedProgram("codec/ogg", `
.entry decode
decode:
	push 3
	mul
	halt
`)
	if err := server.Publish(unit); err != nil {
		t.Fatalf("Publish: %v", err)
	}

	var fetched *lmu.Unit
	var fetchErr error
	device.Fetch("server", "codec/ogg", "", func(u *lmu.Unit, err error) {
		fetched, fetchErr = u, err
	})
	w.sim.RunFor(time.Second)
	if fetchErr != nil {
		t.Fatalf("Fetch: %v", fetchErr)
	}
	if fetched.Manifest.Version != "1.0" {
		t.Errorf("fetched %+v", fetched.Manifest)
	}
	// Unit landed in the local registry; run it locally (the COD payoff).
	stack, err := device.RunComponent("codec/ogg", "decode", 14)
	if err != nil {
		t.Fatalf("RunComponent: %v", err)
	}
	if len(stack) != 1 || stack[0] != 42 {
		t.Errorf("stack = %v", stack)
	}
	if n := audit.count("fetch-in"); n != 1 {
		t.Errorf("device audited %d verified fetches, want 1", n)
	}
}

func TestFetchUnpublished(t *testing.T) {
	w := newWorld(t)
	server := w.addHost(t, "server", nil)
	device := w.addHost(t, "device", nil)
	// In the registry but not published: must not be served.
	unit := w.signedProgram("secret/tool", addSrc)
	if err := server.Registry().Put(unit); err != nil {
		t.Fatal(err)
	}
	var got error
	device.Fetch("server", "secret/tool", "", func(_ *lmu.Unit, err error) { got = err })
	w.sim.RunFor(time.Second)
	if !errors.Is(got, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", got)
	}
}

func TestFetchRejectsTamperedUnit(t *testing.T) {
	w := newWorld(t)
	server := w.addHost(t, "server", nil)
	device := w.addHost(t, "device", nil)
	unit := w.signedProgram("codec/bad", addSrc)
	unit.Data = map[string][]byte{"extra": {1}} // mutate after signing
	if err := server.Publish(unit); err != nil {
		t.Fatal(err)
	}
	var got error
	device.Fetch("server", "codec/bad", "", func(_ *lmu.Unit, err error) { got = err })
	w.sim.RunFor(time.Second)
	if got == nil {
		t.Fatal("tampered unit accepted")
	}
	if device.Registry().Has("codec/bad") {
		t.Error("tampered unit stored in registry")
	}
}

func TestEnsureCachesLocally(t *testing.T) {
	w := newWorld(t)
	var audit auditLog
	server := w.addHost(t, "server", audit.install)
	device := w.addHost(t, "device", nil)
	unit := w.signedProgram("codec/ogg", addSrc)
	if err := server.Publish(unit); err != nil {
		t.Fatal(err)
	}

	hits := make([]bool, 0, 2)
	for i := 0; i < 2; i++ {
		device.Ensure("server", "codec/ogg", "", func(u *lmu.Unit, hit bool, err error) {
			if err != nil {
				t.Fatalf("Ensure: %v", err)
			}
			hits = append(hits, hit)
		})
		w.sim.RunFor(time.Second)
	}
	if len(hits) != 2 || hits[0] || !hits[1] {
		t.Errorf("hits = %v, want [false true]", hits)
	}
	if n := audit.count("fetch"); n != 1 {
		t.Errorf("server served %d fetches, want 1 (second Ensure is a cache hit)", n)
	}
}

// startAll is an AgentRuntime that admits every agent and starts it by
// handing it to the func.
type startAll func(u *lmu.Unit)

func (f startAll) Admit(*lmu.Unit) (bool, string) { return true, "" }

func (f startAll) Start(u *lmu.Unit) { f(u) }

func TestSendAgentRequiresHandler(t *testing.T) {
	w := newWorld(t)
	w.addHost(t, "receiver", nil)
	sender := w.addHost(t, "sender", nil)
	agent := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "agent/x", Version: "1", Kind: lmu.KindAgent, Publisher: w.id.Name},
		Code:     vm.MustAssemble(".entry main\nmain:\nhalt\n").Encode(),
	}
	w.id.SignCode(agent)

	var got error
	sender.SendAgent("receiver", agent, func(err error) { got = err })
	w.sim.RunFor(time.Second)
	if !errors.Is(got, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused without agent runtime", got)
	}
}

func TestSendAgentAcceptedByHandler(t *testing.T) {
	w := newWorld(t)
	receiver := w.addHost(t, "receiver", nil)
	sender := w.addHost(t, "sender", nil)

	var arrived *lmu.Unit
	receiver.SetAgentRuntime(startAll(func(u *lmu.Unit) { arrived = u }))
	agent := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "agent/x", Version: "1", Kind: lmu.KindAgent, Publisher: w.id.Name},
		Code:     vm.MustAssemble(".entry main\nmain:\nhalt\n").Encode(),
		Data:     map[string][]byte{"dest": []byte("receiver")},
	}
	w.id.SignCode(agent)

	var got error
	fired := false
	sender.SendAgent("receiver", agent, func(err error) { got = err; fired = true })
	w.sim.RunFor(time.Second)
	if !fired || got != nil {
		t.Fatalf("ack fired=%v err=%v", fired, got)
	}
	if arrived == nil || arrived.Manifest.Name != "agent/x" {
		t.Fatalf("arrived = %+v", arrived)
	}
	if string(arrived.Data["dest"]) != "receiver" {
		t.Errorf("agent data lost in transfer")
	}
}

func TestSendAgentRejectsNonAgentKind(t *testing.T) {
	w := newWorld(t)
	receiver := w.addHost(t, "receiver", nil)
	sender := w.addHost(t, "sender", nil)
	receiver.SetAgentRuntime(startAll(func(*lmu.Unit) {}))
	comp := w.signedProgram("not/agent", addSrc)
	var got error
	sender.SendAgent("receiver", comp, func(err error) { got = err })
	w.sim.RunFor(time.Second)
	if got == nil {
		t.Fatal("non-agent unit accepted by agent transfer")
	}
}

func TestUserMessages(t *testing.T) {
	w := newWorld(t)
	a := w.addHost(t, "a", nil)
	var audit auditLog
	b := w.addHost(t, "b", audit.install)
	var gotFrom, gotTopic string
	var gotData []byte
	b.OnMessage(func(from, topic string, data []byte) {
		gotFrom, gotTopic, gotData = from, topic, data
	})
	if err := a.SendMessage("b", "sms", []byte("hello")); err != nil {
		t.Fatalf("SendMessage: %v", err)
	}
	w.sim.RunFor(time.Second)
	if gotFrom != "a" || gotTopic != "sms" || string(gotData) != "hello" {
		t.Errorf("message = %q %q %q", gotFrom, gotTopic, gotData)
	}
	if n := audit.count("message"); n != 1 {
		t.Errorf("b audited %d messages, want 1", n)
	}
}

func TestRunComponentMissing(t *testing.T) {
	w := newWorld(t)
	h := w.addHost(t, "solo", nil)
	if _, err := h.RunComponent("ghost", "main"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("err = %v, want registry.ErrNotFound", err)
	}
}

// blobSumSrc sums the bytes of blob 0 (the first data key in sorted order)
// and leaves [blob_count, sum] on the stack.
const blobSumSrc = `
.entry main
main:
	push 0
	host blob_len    ; len
	store 0          ; i = len
	push 0
	store 1          ; acc
loop:
	load 0
	jz done
	load 0
	push 1
	sub
	store 0          ; i--
	push 0
	load 0
	host blob_byte   ; byte value
	load 1
	add
	store 1
	jmp loop
done:
	host blob_count
	load 1
	halt
`

func TestBlobHostFunctions(t *testing.T) {
	w := newWorld(t)
	h := w.addHost(t, "solo", nil)
	u := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "tool/sum", Version: "1.0", Kind: lmu.KindComponent, Publisher: w.id.Name},
		Code:     vm.MustAssemble(blobSumSrc).Encode(),
		Data:     map[string][]byte{"payload": {1, 2, 3, 4, 5}},
	}
	w.id.Sign(u)
	if err := h.Registry().Put(u); err != nil {
		t.Fatal(err)
	}
	stack, err := h.RunComponent("tool/sum", "main")
	if err != nil {
		t.Fatalf("RunComponent: %v", err)
	}
	if len(stack) != 2 || stack[0] != 1 || stack[1] != 15 {
		t.Errorf("stack = %v, want [1 15]", stack)
	}
}

// TestHostCloseFailsPending checks that Close fails every pending request,
// in the order the requests were made rather than in map order, and that a
// second Close is a no-op.
func TestHostCloseFailsPending(t *testing.T) {
	w := newWorld(t)
	client := w.addHost(t, "client", func(c *Config) { c.RequestTimeout = time.Hour })
	class := netsim.WLAN
	class.Loss = 0
	w.net.AddNode("mute", netsim.Position{}, class)
	w.net.SetHandler("mute", func(string, []byte) {})

	const n = 64
	var order []int
	for i := 0; i < n; i++ {
		client.Call("mute", "svc", nil, func(_ [][]byte, err error) {
			if err == nil {
				t.Errorf("call %d did not fail", i)
			}
			order = append(order, i)
		})
	}
	w.sim.RunFor(time.Second)
	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(order) != n {
		t.Fatalf("Close failed %d of %d pending calls", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("callback %d was call %d; order %v", i, got, order)
		}
	}
	if err := client.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestRequestsOnClosedHostFailAtOnce checks that once Close returns, each
// kind of request calls back before it returns, once, with an error that
// wraps transport.ErrClosed: nothing leaves, so the remote serves nothing
// and no timeout fires later. A closed host takes no request at all: the
// request table Close emptied stays nil.
func TestRequestsOnClosedHostFailAtOnce(t *testing.T) {
	w := newWorld(t)
	var audit auditLog
	server := w.addHost(t, "server", func(c *Config) { c.ServePublish = true; audit.install(c) })
	client := w.addHost(t, "client", nil)
	server.RegisterService("echo", func(_ string, args [][]byte) ([][]byte, error) { return args, nil })
	unit := w.signedProgram("adder", addSrc)
	if err := server.Publish(unit); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	requests := []struct {
		name  string
		issue func(done func(error))
	}{
		{"Call", func(done func(error)) {
			client.Call("server", "echo", nil, func(_ [][]byte, err error) { done(err) })
		}},
		{"Eval", func(done func(error)) {
			client.Eval("server", unit, "main", []int64{1, 2}, func(_ []int64, err error) { done(err) })
		}},
		{"Fetch", func(done func(error)) {
			client.Fetch("server", "adder", "", func(_ *lmu.Unit, err error) { done(err) })
		}},
		{"SendAgent", func(done func(error)) { client.SendAgent("server", unit, done) }},
		{"PublishTo", func(done func(error)) { client.PublishTo("server", unit, done) }},
	}
	calls := make([]int, len(requests))
	for i, r := range requests {
		var got error
		r.issue(func(err error) { calls[i]++; got = err })
		if calls[i] != 1 || !errors.Is(got, transport.ErrClosed) {
			t.Errorf("%s on a closed host: %d callbacks before it returned, error %v; want one wrapping transport.ErrClosed", r.name, calls[i], got)
		}
	}
	w.sim.RunFor(time.Minute) // well past the request timeout
	for i, r := range requests {
		if calls[i] != 1 {
			t.Errorf("%s called back %d times", r.name, calls[i])
		}
	}
	if client.reqs != nil {
		t.Errorf("a closed host took request records: %d pending, %d capacity", len(client.reqs), cap(client.reqs))
	}
	if len(audit) != 0 {
		t.Errorf("the remote of a closed host served %+v", audit)
	}
}

func TestConcurrentRequestsKeepIDsApart(t *testing.T) {
	w := newWorld(t)
	server := w.addHost(t, "server", nil)
	client := w.addHost(t, "client", nil)
	server.RegisterService("id", func(from string, args [][]byte) ([][]byte, error) {
		return args, nil
	})
	results := map[string]string{}
	for i := 0; i < 10; i++ {
		arg := fmt.Sprintf("req-%d", i)
		client.Call("server", "id", [][]byte{[]byte(arg)}, func(r [][]byte, err error) {
			if err != nil {
				t.Errorf("call %s: %v", arg, err)
				return
			}
			results[arg] = string(r[0])
		})
	}
	w.sim.RunFor(5 * time.Second)
	if len(results) != 10 {
		t.Fatalf("got %d results", len(results))
	}
	for k, v := range results {
		if k != v {
			t.Errorf("reply mismatch: %q -> %q", k, v)
		}
	}
}

func TestNewHostValidation(t *testing.T) {
	if _, err := NewHost(Config{}); err == nil {
		t.Error("NewHost with no endpoint should fail")
	}
	w := newWorld(t)
	class := netsim.WLAN
	w.net.AddNode("n", netsim.Position{}, class)
	ep, _ := w.sn.Endpoint("n")
	if _, err := NewHost(Config{Endpoint: ep}); err == nil {
		t.Error("NewHost with no scheduler should fail")
	}
}

func TestEnsureWithDepsFetchesClosure(t *testing.T) {
	w := newWorld(t)
	server := w.addHost(t, "server", nil)
	device := w.addHost(t, "device", nil)

	base := w.signedProgram("lib/base", addSrc)
	mid := w.signedProgram("lib/mid", addSrc)
	mid.Manifest.Deps = []lmu.Dep{{Name: "lib/base", MinVersion: "1.0"}}
	w.id.Sign(mid)
	app := w.signedProgram("app/main", addSrc)
	app.Manifest.Deps = []lmu.Dep{{Name: "lib/mid", MinVersion: "1.0"}}
	w.id.Sign(app)
	for _, u := range []*lmu.Unit{base, mid, app} {
		if err := server.Publish(u); err != nil {
			t.Fatal(err)
		}
	}

	var got *lmu.Unit
	var gotErr error
	device.EnsureWithDeps("server", "app/main", "", func(u *lmu.Unit, err error) {
		got, gotErr = u, err
	})
	w.sim.RunFor(time.Minute)
	if gotErr != nil {
		t.Fatalf("EnsureWithDeps: %v", gotErr)
	}
	if got == nil || got.Manifest.Name != "app/main" {
		t.Fatalf("unit = %+v", got)
	}
	// The whole closure is local, each dependency at a version that
	// satisfies its dependent.
	for _, u := range []*lmu.Unit{app, mid} {
		for _, d := range u.Manifest.Deps {
			if _, ok := device.Registry().GetAtLeast(d.Name, d.MinVersion); !ok {
				t.Errorf("%s's dependency %s >= %s missing from device registry", u.Manifest.Name, d.Name, d.MinVersion)
			}
		}
	}
}

// A dependency the remote holds only at a version below the dependent's
// minimum is a missing dependency, even though a unit of that name exists.
func TestEnsureWithDepsMinVersion(t *testing.T) {
	w := newWorld(t)
	server := w.addHost(t, "server", nil)
	device := w.addHost(t, "device", nil)
	lib := w.signedProgram("lib/core", addSrc) // version 1.0
	app := w.signedProgram("app/main", addSrc)
	app.Manifest.Deps = []lmu.Dep{{Name: "lib/core", MinVersion: "2.0"}}
	w.id.Sign(app)
	for _, u := range []*lmu.Unit{lib, app} {
		if err := server.Publish(u); err != nil {
			t.Fatal(err)
		}
	}
	ensure := func() error {
		var gotErr error
		done := false
		device.EnsureWithDeps("server", "app/main", "", func(_ *lmu.Unit, err error) {
			gotErr, done = err, true
		})
		w.sim.RunFor(time.Minute)
		if !done {
			t.Fatal("EnsureWithDeps never called back")
		}
		return gotErr
	}
	if err := ensure(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("EnsureWithDeps with lib/core 1.0 < 2.0 = %v, want wrapped ErrNotFound", err)
	}
	lib2 := w.signedProgram("lib/core", addSrc)
	lib2.Manifest.Version = "2.1"
	w.id.Sign(lib2)
	if err := server.Publish(lib2); err != nil {
		t.Fatal(err)
	}
	if err := ensure(); err != nil {
		t.Fatalf("EnsureWithDeps after lib/core 2.1 published: %v", err)
	}
	if u, ok := device.Registry().GetAtLeast("lib/core", "2.0"); !ok || u.Manifest.Version != "2.1" {
		t.Errorf("device holds lib/core %v, want 2.1", u)
	}
}

func TestEnsureWithDepsMissingDep(t *testing.T) {
	w := newWorld(t)
	server := w.addHost(t, "server", nil)
	device := w.addHost(t, "device", nil)
	app := w.signedProgram("app/main", addSrc)
	app.Manifest.Deps = []lmu.Dep{{Name: "lib/ghost", MinVersion: "1.0"}}
	w.id.Sign(app)
	if err := server.Publish(app); err != nil {
		t.Fatal(err)
	}
	var gotErr error
	device.EnsureWithDeps("server", "app/main", "", func(_ *lmu.Unit, err error) {
		gotErr = err
	})
	w.sim.RunFor(time.Minute)
	if gotErr == nil {
		t.Fatal("missing dependency not reported")
	}
	if !errors.Is(gotErr, ErrNotFound) {
		t.Errorf("err = %v, want wrapped ErrNotFound", gotErr)
	}
}

func TestEnsureWithDepsCycleTerminates(t *testing.T) {
	w := newWorld(t)
	server := w.addHost(t, "server", nil)
	device := w.addHost(t, "device", nil)
	a := w.signedProgram("lib/a", addSrc)
	a.Manifest.Deps = []lmu.Dep{{Name: "lib/b"}}
	w.id.Sign(a)
	b := w.signedProgram("lib/b", addSrc)
	b.Manifest.Deps = []lmu.Dep{{Name: "lib/a"}}
	w.id.Sign(b)
	for _, u := range []*lmu.Unit{a, b} {
		if err := server.Publish(u); err != nil {
			t.Fatal(err)
		}
	}
	done := false
	device.EnsureWithDeps("server", "lib/a", "", func(_ *lmu.Unit, err error) {
		if err != nil {
			t.Errorf("EnsureWithDeps: %v", err)
		}
		done = true
	})
	w.sim.RunFor(time.Minute)
	if !done {
		t.Fatal("cyclic dependency never terminated")
	}
	if !device.Registry().Has("lib/b") {
		t.Error("lib/b not fetched")
	}
}

// Remote Evaluation links against the base capability set only: a job
// importing anything else (here an agent capability) fails to link rather
// than running with more authority than the host grants.
func TestEvalOfUngrantedCapabilityFailsToLink(t *testing.T) {
	w := newWorld(t)
	w.addHost(t, "plain", nil)
	client := w.addHost(t, "client", nil)
	unit := w.signedProgram("job/ask", ".entry main\nmain:\nhost a_deliver\nhalt\n")
	var got error
	client.Eval("plain", unit, "main", nil, func(_ []int64, err error) { got = err })
	w.sim.RunFor(time.Second)
	if got == nil {
		t.Fatal("capability leak: plain host linked a_deliver for an evaluation")
	}
}

func TestFetchIntoFullRegistry(t *testing.T) {
	w := newWorld(t)
	server := w.addHost(t, "server", nil)
	// Device registry too small for the published unit.
	device := w.addHost(t, "device", func(c *Config) {
		c.Registry = registry.New(10, registry.WithClock(w.sim.Now))
	})
	unit := w.signedProgram("big/unit", addSrc)
	if err := server.Publish(unit); err != nil {
		t.Fatal(err)
	}
	var got error
	device.Fetch("server", "big/unit", "", func(_ *lmu.Unit, err error) { got = err })
	w.sim.RunFor(time.Second)
	if !errors.Is(got, registry.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want quota error", got)
	}
}
