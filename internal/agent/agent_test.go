package agent

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"logmob/internal/core"
	"logmob/internal/lmu"
	"logmob/internal/netsim"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

// world wires simulated hosts with agent platforms.
type world struct {
	sim       *netsim.Sim
	net       *netsim.Network
	sn        *transport.SimNetwork
	hosts     map[string]*core.Host
	platforms map[string]*Platform
	arrived   map[string]*int64 // agents each platform admitted
	records   []Record
}

func newWorld(t *testing.T) *world {
	t.Helper()
	sim := netsim.NewSim(7)
	net := netsim.NewNetwork(sim)
	return &world{
		sim:       sim,
		net:       net,
		sn:        transport.NewSimNetwork(net),
		hosts:     make(map[string]*core.Host),
		platforms: make(map[string]*Platform),
		arrived:   make(map[string]*int64),
	}
}

// countArrivals installs, as p's host's agent runtime, p itself wrapped to
// count the arriving agents it admits, and returns that count.
func countArrivals(p *Platform) *int64 {
	c := &admitCounter{AgentRuntime: p}
	p.Host().SetAgentRuntime(c)
	return &c.admitted
}

// admitCounter wraps an agent runtime to count the arrivals it is asked to
// admit, and how many of them it admitted.
type admitCounter struct {
	core.AgentRuntime
	asked, admitted int64
}

func (c *admitCounter) Admit(u *lmu.Unit) (bool, string) {
	c.asked++
	ok, reason := c.AgentRuntime.Admit(u)
	if ok {
		c.admitted++
	}
	return ok, reason
}

func (w *world) addHost(t *testing.T, name string, pos netsim.Position, env Env) *Platform {
	t.Helper()
	class := netsim.AdHoc
	class.Loss = 0
	w.net.AddNode(name, pos, class)
	ep, err := w.sn.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHost(core.Config{
		Name:      name,
		Endpoint:  ep,
		Scheduler: w.sim,
		Policy:    security.Policy{AllowUnsigned: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	prevDone := env.OnDone
	env.OnDone = func(r Record) {
		w.records = append(w.records, r)
		if prevDone != nil {
			prevDone(r)
		}
	}
	if env.Seed == 0 {
		env.Seed = 11
	}
	p := NewPlatform(h, env)
	w.hosts[name] = h
	w.platforms[name] = p
	w.arrived[name] = countArrivals(p)
	return p
}

func TestSpawnRunsToCompletion(t *testing.T) {
	w := newWorld(t)
	p := w.addHost(t, "solo", netsim.Position{}, Env{})
	prog := vm.MustAssemble(".entry main\nmain:\npush 42\nhalt\n")
	id, err := p.Spawn("trivial", prog, nil, "main")
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if len(w.records) != 1 {
		t.Fatalf("records = %d", len(w.records))
	}
	r := w.records[0]
	if r.ID != id || r.Status != StatusCompleted {
		t.Errorf("record = %+v", r)
	}
	if len(r.Stack) != 1 || r.Stack[0] != 42 {
		t.Errorf("stack = %v", r.Stack)
	}
}

func TestSpawnUnknownEntry(t *testing.T) {
	w := newWorld(t)
	p := w.addHost(t, "solo", netsim.Position{}, Env{})
	prog := vm.MustAssemble(".entry main\nmain:\nhalt\n")
	if _, err := p.Spawn("x", prog, nil, "missing"); err == nil {
		t.Fatal("Spawn with bad entry should fail")
	}
}

func TestAgentMigratesAndDelivers(t *testing.T) {
	w := newWorld(t)
	pa := w.addHost(t, "alpha", netsim.Position{X: 0, Y: 0}, Env{})
	w.addHost(t, "beta", netsim.Position{X: 10, Y: 0}, Env{})

	var delivered []byte
	var deliveredTopic string
	w.hosts["beta"].OnMessage(func(from, topic string, data []byte) {
		deliveredTopic = topic
		delivered = data
	})

	_, err := pa.Spawn("courier", CourierProgram, NewCourierData("beta", "sms", []byte("help!")), "main")
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	w.sim.RunFor(10 * time.Second)

	if string(delivered) != "help!" || deliveredTopic != "sms" {
		t.Fatalf("delivered = %q topic %q", delivered, deliveredTopic)
	}
	if len(w.records) != 1 {
		t.Fatalf("records = %d", len(w.records))
	}
	r := w.records[0]
	if r.Status != StatusCompleted {
		t.Errorf("status = %v (%s)", r.Status, r.Detail)
	}
	if r.Hops != 1 {
		t.Errorf("hops = %d, want 1", r.Hops)
	}
	// Global 0 (attempt counter) travelled with the agent.
	if len(r.Stack) != 1 || r.Stack[0] != 1 {
		t.Errorf("final stack = %v, want [1] migration attempt", r.Stack)
	}
	if pa.Stats().Migrations != 1 {
		t.Errorf("alpha migrations = %d", pa.Stats().Migrations)
	}
}

func TestAgentMultiHopChain(t *testing.T) {
	// A line of hosts where each only reaches its neighbors; the courier
	// must hop through all of them (range 30, spacing 25).
	w := newWorld(t)
	names := []string{"n0", "n1", "n2", "n3", "n4"}
	for i, name := range names {
		w.addHost(t, name, netsim.Position{X: float64(i) * 25, Y: 0}, Env{})
	}
	var delivered bool
	w.hosts["n4"].OnMessage(func(string, string, []byte) { delivered = true })

	_, err := w.platforms["n0"].Spawn("courier", CourierProgram, NewCourierData("n4", "msg", []byte("x")), "main")
	if err != nil {
		t.Fatal(err)
	}
	w.sim.RunFor(5 * time.Minute)
	if !delivered {
		t.Fatal("message never delivered across the chain")
	}
	if len(w.records) != 1 || w.records[0].Hops < 4 {
		t.Errorf("records = %+v", w.records)
	}
}

func TestAgentWaitsForConnectivity(t *testing.T) {
	// Destination starts out of range; a relay walks into range later.
	// The courier must sleep (carry) and deliver once topology allows.
	w := newWorld(t)
	w.addHost(t, "src", netsim.Position{X: 0, Y: 0}, Env{})
	w.addHost(t, "dst", netsim.Position{X: 200, Y: 0}, Env{})
	w.addHost(t, "relay", netsim.Position{X: 500, Y: 500}, Env{})

	var deliveredAt time.Duration
	w.hosts["dst"].OnMessage(func(string, string, []byte) { deliveredAt = w.sim.Now() })

	_, err := w.platforms["src"].Spawn("courier", CourierProgram, NewCourierData("dst", "msg", []byte("x")), "main")
	if err != nil {
		t.Fatal(err)
	}
	// Nothing reachable for 30s.
	w.sim.RunFor(30 * time.Second)
	if deliveredAt != 0 {
		t.Fatal("delivered while partitioned")
	}
	// The relay ferries: walk to src, then to dst.
	w.net.StartMobility(&netsim.Waypath{
		Points: []netsim.Position{{X: 0, Y: 10}, {X: 200, Y: 10}},
		Speed:  20,
	}, time.Second, "relay")
	w.sim.RunFor(5 * time.Minute)
	if deliveredAt == 0 {
		t.Fatal("never delivered after relay ferried")
	}
}

func TestHopBudgetDropsAgent(t *testing.T) {
	w := newWorld(t)
	// Two hosts ping-ponging an agent that never reaches its destination
	// ("ghost" does not exist).
	w.addHost(t, "a", netsim.Position{X: 0, Y: 0}, Env{MaxHops: 6})
	w.addHost(t, "b", netsim.Position{X: 10, Y: 0}, Env{MaxHops: 6})
	_, err := w.platforms["a"].Spawn("courier", CourierProgram, NewCourierData("ghost", "m", nil), "main")
	if err != nil {
		t.Fatal(err)
	}
	w.sim.RunFor(2 * time.Minute)
	dropped := false
	for _, r := range w.records {
		if r.Status == StatusDropped {
			dropped = true
			if r.Hops <= 6 {
				t.Errorf("dropped at hops=%d, want > budget", r.Hops)
			}
		}
	}
	if !dropped {
		t.Fatalf("agent never dropped; records = %+v", w.records)
	}
}

func TestResidentCapacity(t *testing.T) {
	w := newWorld(t)
	w.addHost(t, "a", netsim.Position{X: 0, Y: 0}, Env{})
	pb := w.addHost(t, "b", netsim.Position{X: 10, Y: 0}, Env{MaxResident: 1})
	_ = pb
	// Sleeping agents occupy residency; the second incoming agent while one
	// sleeps must be refused and bounce back to the sender.
	sleeper := vm.MustAssemble(`
.entry main
main:
	push 60000
	host a_sleep
	halt
`)
	goAndSleep := vm.MustAssemble(`
.entry main
main:
	host a_select_toward_dest
	jz fail
	host a_migrate
	jz fail
	push 60000
	host a_sleep
	halt
fail:
	push -1
	halt
`)
	_ = sleeper
	for i := 0; i < 2; i++ {
		if _, err := w.platforms["a"].Spawn("sleepy", goAndSleep,
			map[string][]byte{KeyDest: []byte("b")}, "main"); err != nil {
			t.Fatal(err)
		}
	}
	w.sim.RunFor(30 * time.Second)
	// One agent sleeps on b; the other was refused, resumed on a, and
	// reported migration failure (-1 on stack after fail path).
	if got := w.platforms["a"].Stats().MigrationFailures; got != 1 {
		t.Errorf("MigrationFailures = %d, want 1", got)
	}
}

func TestAgentRuntimeFailureRecorded(t *testing.T) {
	w := newWorld(t)
	p := w.addHost(t, "solo", netsim.Position{}, Env{})
	prog := vm.MustAssemble(".entry main\nmain:\npush 1\npush 0\ndiv\nhalt\n")
	if _, err := p.Spawn("crasher", prog, nil, "main"); err != nil {
		t.Fatal(err)
	}
	if len(w.records) != 1 || w.records[0].Status != StatusFailed {
		t.Fatalf("records = %+v", w.records)
	}
}

func TestAgentFuelExhaustionKills(t *testing.T) {
	w := newWorld(t)
	p := w.addHost(t, "solo", netsim.Position{}, Env{MaxFuel: 100})
	prog := vm.MustAssemble(".entry main\nmain:\nloop:\njmp loop\n")
	if _, err := p.Spawn("spinner", prog, nil, "main"); err != nil {
		t.Fatal(err)
	}
	if len(w.records) != 1 || w.records[0].Status != StatusFailed {
		t.Fatalf("runaway agent not killed: %+v", w.records)
	}
}

func TestSleepRefuelsEachActivation(t *testing.T) {
	// An agent that sleeps repeatedly must get a fresh fuel budget per
	// activation, not die of cumulative consumption.
	w := newWorld(t)
	p := w.addHost(t, "solo", netsim.Position{}, Env{MaxFuel: 200})
	prog := vm.MustAssemble(`
.globals 1
.entry main
main:
	push 50
	gstore 0
loop:
	gload 0
	jz done
	gload 0
	push 1
	sub
	gstore 0
	push 10
	host a_sleep
	jmp loop
done:
	push 777
	halt
`)
	if _, err := p.Spawn("napper", prog, nil, "main"); err != nil {
		t.Fatal(err)
	}
	w.sim.RunFor(10 * time.Second)
	if len(w.records) != 1 || w.records[0].Status != StatusCompleted {
		t.Fatalf("records = %+v", w.records)
	}
	if w.records[0].Stack[len(w.records[0].Stack)-1] != 777 {
		t.Errorf("stack = %v", w.records[0].Stack)
	}
}

func TestSpawnUnitRejectsNonAgent(t *testing.T) {
	w := newWorld(t)
	p := w.addHost(t, "solo", netsim.Position{}, Env{})
	u := &lmu.Unit{Manifest: lmu.Manifest{Name: "c", Kind: lmu.KindComponent}}
	if _, err := p.SpawnUnit(u, "main"); err == nil {
		t.Fatal("SpawnUnit accepted a component")
	}
}

func TestSignedAgentAcrossTrustingHosts(t *testing.T) {
	// Full security path: publisher code-signs the courier; hosts require
	// signatures; state mutates at each hop without breaking verification.
	sim := netsim.NewSim(3)
	net := netsim.NewNetwork(sim)
	sn := transport.NewSimNetwork(net)
	publisher := security.MustNewIdentity("publisher")

	records := []Record{}
	mk := func(name string, pos netsim.Position) *Platform {
		class := netsim.AdHoc
		class.Loss = 0
		net.AddNode(name, pos, class)
		ep, err := sn.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		trust := security.NewTrustStore()
		trust.TrustIdentity(publisher)
		h, err := core.NewHost(core.Config{
			Name: name, Endpoint: ep, Scheduler: sim, Trust: trust,
		})
		if err != nil {
			t.Fatal(err)
		}
		return NewPlatform(h, Env{Seed: 5, OnDone: func(r Record) { records = append(records, r) }})
	}
	pa := mk("a", netsim.Position{X: 0, Y: 0})
	pb := mk("b", netsim.Position{X: 10, Y: 0})

	delivered := false
	pb.Host().OnMessage(func(string, string, []byte) { delivered = true })

	unit := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "courier", Version: "1.0", Kind: lmu.KindAgent, Publisher: "publisher"},
		Code:     CourierProgram.Encode(),
		Data:     NewCourierData("b", "sms", []byte("signed hello")),
	}
	publisher.SignCode(unit)
	if _, err := pa.SpawnUnit(unit, "main"); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(30 * time.Second)
	if !delivered {
		t.Fatalf("signed agent not delivered; records = %+v", records)
	}
}

func TestUnsignedAgentRefusedByStrictHost(t *testing.T) {
	sim := netsim.NewSim(3)
	net := netsim.NewNetwork(sim)
	sn := transport.NewSimNetwork(net)

	var audit []core.AuditEvent // the strict host's
	mk := func(name string, pos netsim.Position, allowUnsigned bool) *Platform {
		class := netsim.AdHoc
		class.Loss = 0
		net.AddNode(name, pos, class)
		ep, err := sn.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{
			Name: name, Endpoint: ep, Scheduler: sim,
			Policy: security.Policy{AllowUnsigned: allowUnsigned},
		}
		if !allowUnsigned {
			cfg.Audit = func(ev core.AuditEvent) { audit = append(audit, ev) }
		}
		h, err := core.NewHost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return NewPlatform(h, Env{Seed: 5})
	}
	pa := mk("a", netsim.Position{X: 0, Y: 0}, true)
	pb := mk("b", netsim.Position{X: 10, Y: 0}, false) // strict

	delivered := false
	pb.Host().OnMessage(func(string, string, []byte) { delivered = true })
	if _, err := pa.Spawn("courier", CourierProgram, NewCourierData("b", "m", nil), "main"); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(30 * time.Second)
	if delivered {
		t.Fatal("strict host executed an unsigned agent")
	}
	if !slices.ContainsFunc(audit, func(ev core.AuditEvent) bool { return ev.Kind == "verify-fail" }) {
		t.Error("verify failure not audited")
	}
}

// The data space grows mid-activation: migrate() records _prev before a
// transfer that may fail and resume here. Blob addressing must see the new
// key, not a key list cached when the activation began.
func TestBlobCountSeesKeyAddedMidActivation(t *testing.T) {
	w := newWorld(t)
	p := w.addHost(t, "solo", netsim.Position{}, Env{})
	prog := vm.MustAssemble(`
.entry main
main:
	host blob_count
	host a_select_dest
	pop
	host a_migrate
	pop
	host blob_count
	halt
`)
	if _, err := p.Spawn("counter", prog,
		map[string][]byte{KeyDest: []byte("nowhere")}, "main"); err != nil {
		t.Fatal(err)
	}
	w.sim.RunFor(time.Minute)
	if len(w.records) != 1 || w.records[0].Status != StatusCompleted {
		t.Fatalf("records = %+v", w.records)
	}
	r := w.records[0]
	if p.Stats().MigrationFailures != 1 {
		t.Fatalf("migration to an unknown host should fail once: %+v", p.Stats())
	}
	want := int64(len(r.Unit.Data)) // _entry _id _prev dest
	if len(r.Stack) != 2 || r.Stack[0] != want-1 || r.Stack[1] != want {
		t.Errorf("blob counts = %v, want [%d %d] for keys %v", r.Stack, want-1, want, r.Unit.DataKeys())
	}
}

// TestPlatformSize pins Platform to Go's 144-byte allocation size class.
// Every resident of a crowd carries one, and the next class up is 160
// bytes: one more word costs every resident 16 bytes.
func TestPlatformSize(t *testing.T) {
	if got := unsafe.Sizeof(Platform{}); got > 144 {
		t.Errorf("Platform is %d bytes, want at most 144 (its size class)", got)
	}
}
