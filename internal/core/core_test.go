package core

import (
	"errors"
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

// TestCallToDownPeerFailsAtOnce: a simulated send to a peer that is down
// fails before Call returns, so the callback fires once, then and there,
// with the simulator's *netsim.ErrUnreachable, and no request is left
// pending to time out later. TestCallTimeoutWithSilentPeer covers a send
// that leaves and is never answered.
func TestCallToDownPeerFailsAtOnce(t *testing.T) {
	w := newWorld(t)
	client := w.addHost(t, "client", func(c *Config) { c.RequestTimeout = 2 * time.Second })
	w.addHost(t, "server", nil)
	w.net.SetUp("server", false)

	var got error
	called := 0
	client.Call("server", "echo", nil, func(_ [][]byte, err error) { got = err; called++ })
	var unreachable *netsim.ErrUnreachable
	if called != 1 || !errors.As(got, &unreachable) {
		t.Fatalf("before Call returned: %d callbacks, error %v; want one wrapping *netsim.ErrUnreachable", called, got)
	}
	if len(client.reqs) != 0 {
		t.Errorf("%d requests pending after the send failed, want 0", len(client.reqs))
	}
	w.sim.RunFor(10 * time.Second) // past the request timeout
	if called != 1 {
		t.Errorf("callback fired %d times, want once", called)
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

// startAll is an AgentRuntime that admits every agent and starts it by
// handing it to the func.
type startAll func(u *lmu.Unit)

func (f startAll) Admit(*lmu.Unit) (bool, string) { return true, "" }

func (f startAll) Start(u *lmu.Unit) { f(u) }

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
