package agent

import (
	"slices"
	"testing"
	"time"

	"logmob/internal/core"
	"logmob/internal/lmu"
	"logmob/internal/netsim"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

func TestEncodeDecodeItinerary(t *testing.T) {
	hosts := []string{"a", "b", "c"}
	got := DecodeItinerary(EncodeItinerary(hosts))
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("round trip = %v", got)
	}
	if DecodeItinerary(nil) != nil {
		t.Error("nil itinerary should decode to nil")
	}
	if DecodeItinerary([]byte{0xFF, 0xFF}) != nil {
		t.Error("garbage itinerary should decode to nil")
	}
	if got := DecodeItinerary(EncodeItinerary(nil)); len(got) != 0 {
		t.Errorf("empty itinerary = %v", got)
	}
}

// itineraryWalker visits every itinerary entry in order, recording the hop
// count in global 0, then halts at the last stop.
const itineraryWalkerSource = `
.globals 2
.entry main
main:
loop:
	gload 1
	host a_itin_count
	lt
	jz done
	gload 1
	host a_itin_select
	jz next
	host a_migrate
	jz next
	gload 0
	push 1
	add
	gstore 0      ; successful hops++
next:
	gload 1
	push 1
	add
	gstore 1      ; index++
	jmp loop
done:
	gload 0
	halt
`

func TestItineraryAgentVisitsAllStopsInOrder(t *testing.T) {
	w := newWorld(t)
	// Fully connected cluster.
	for i, name := range []string{"start", "v1", "v2", "v3"} {
		w.addHost(t, name, netsim.Position{X: float64(i), Y: 0}, Env{})
	}
	prog := vm.MustAssemble(itineraryWalkerSource)
	data := map[string][]byte{
		KeyItinerary: EncodeItinerary([]string{"v1", "v2", "v3"}),
	}
	if _, err := w.platforms["start"].Spawn("walker", prog, data, "main"); err != nil {
		t.Fatal(err)
	}
	w.sim.RunFor(time.Minute)
	if len(w.records) != 1 {
		t.Fatalf("records = %d", len(w.records))
	}
	r := w.records[0]
	if r.Status != StatusCompleted {
		t.Fatalf("status = %v (%s)", r.Status, r.Detail)
	}
	// 3 successful hops recorded in global 0 (top of final stack).
	if n := len(r.Stack); n == 0 || r.Stack[n-1] != 3 {
		t.Errorf("final stack = %v, want hop counter 3", r.Stack)
	}
	if r.Hops != 3 {
		t.Errorf("platform hop count = %d, want 3", r.Hops)
	}
}

func TestItineraryAgentSkipsUnreachableStops(t *testing.T) {
	w := newWorld(t)
	w.addHost(t, "start", netsim.Position{X: 0, Y: 0}, Env{})
	w.addHost(t, "v1", netsim.Position{X: 5, Y: 0}, Env{})
	w.addHost(t, "v2", netsim.Position{X: 9000, Y: 0}, Env{}) // out of range of everyone
	w.addHost(t, "v3", netsim.Position{X: 10, Y: 0}, Env{})
	prog := vm.MustAssemble(itineraryWalkerSource)
	data := map[string][]byte{
		KeyItinerary: EncodeItinerary([]string{"v1", "v2", "v3"}),
	}
	if _, err := w.platforms["start"].Spawn("walker", prog, data, "main"); err != nil {
		t.Fatal(err)
	}
	w.sim.RunFor(2 * time.Minute)
	if len(w.records) != 1 {
		t.Fatalf("records = %+v", w.records)
	}
	r := w.records[0]
	if r.Status != StatusCompleted {
		t.Fatalf("status = %v (%s)", r.Status, r.Detail)
	}
	// v2 unreachable: only 2 successful hops, and the agent survives.
	if n := len(r.Stack); n == 0 || r.Stack[n-1] != 2 {
		t.Errorf("final stack = %v, want hop counter 2", r.Stack)
	}
}

func TestExtraCapsAvailableToAgents(t *testing.T) {
	w := newWorld(t)
	p := w.addHost(t, "solo", netsim.Position{}, Env{Caps: NewCaps(vm.HostFunc{
		Name: "app_answer", Arity: 0,
		Fn: func(m *vm.Machine, _ []int64) ([]int64, int64, error) {
			return m.Ret1(42), 0, nil
		},
	})})
	prog := vm.MustAssemble(".entry main\nmain:\nhost app_answer\nhalt\n")
	if _, err := p.Spawn("asker", prog, nil, "main"); err != nil {
		t.Fatal(err)
	}
	if len(w.records) != 1 || w.records[0].Status != StatusCompleted {
		t.Fatalf("records = %+v", w.records)
	}
	if s := w.records[0].Stack; len(s) != 1 || s[0] != 42 {
		t.Errorf("stack = %v", s)
	}
}

// One table serves many platforms, so a capability must find its own
// platform and its own agent through the machine, never through what it
// captured: two agents on two platforms sharing one table, both sleeping
// and resuming at the same virtual time, each see only themselves.
func TestSharedCapsSeeOwnPlatformAndUnit(t *testing.T) {
	caps := NewCaps(vm.HostFunc{
		Name: "app_whoami", Arity: 0,
		Fn: func(m *vm.Machine, _ []int64) ([]int64, int64, error) {
			p, u := Current(m)
			return m.Ret2(int64(p.Host().Name()[0]), int64(u.Data["tag"][0])), 0, nil
		},
	})
	w := newWorld(t)
	pa := w.addHost(t, "a", netsim.Position{}, Env{Caps: caps})
	pb := w.addHost(t, "b", netsim.Position{X: 10}, Env{Caps: caps})
	prog := vm.MustAssemble(`
.entry main
main:
	host app_whoami
	push 100
	host a_sleep
	host app_whoami
	halt
`)
	for _, c := range []struct {
		p   *Platform
		tag string
	}{{pa, "x"}, {pb, "y"}} {
		if _, err := c.p.Spawn("who", prog, map[string][]byte{"tag": []byte(c.tag)}, "main"); err != nil {
			t.Fatal(err)
		}
	}
	w.sim.RunFor(time.Second)
	if len(w.records) != 2 {
		t.Fatalf("records = %+v", w.records)
	}
	for _, r := range w.records {
		host, tag := int64(r.ID[0]), int64(r.Unit.Data["tag"][0])
		want := []int64{host, tag, host, tag}
		if r.Status != StatusCompleted || !slices.Equal(r.Stack, want) {
			t.Errorf("%s: status %v stack %v, want %v", r.ID, r.Status, r.Stack, want)
		}
	}
}

func TestAgentWithoutExtraCapDies(t *testing.T) {
	w := newWorld(t)
	p := w.addHost(t, "solo", netsim.Position{}, Env{}) // standard capability set
	prog := vm.MustAssemble(".entry main\nmain:\nhost app_answer\nhalt\n")
	if _, err := p.Spawn("asker", prog, nil, "main"); err != nil {
		t.Fatal(err)
	}
	if len(w.records) != 1 || w.records[0].Status != StatusFailed {
		t.Fatalf("agent with unlinkable capability should fail: %+v", w.records)
	}
}

func TestSelectDestDirectAddressing(t *testing.T) {
	w := newWorld(t)
	w.addHost(t, "a", netsim.Position{X: 0, Y: 0}, Env{})
	w.addHost(t, "b", netsim.Position{X: 10, Y: 0}, Env{})
	prog := vm.MustAssemble(`
.entry main
main:
	host a_select_dest
	jz fail
	host a_migrate
	halt          ; stack: [migrate result]
fail:
	push -1
	halt
`)
	if _, err := w.platforms["a"].Spawn("direct", prog,
		map[string][]byte{KeyDest: []byte("b")}, "main"); err != nil {
		t.Fatal(err)
	}
	w.sim.RunFor(time.Minute)
	if len(w.records) != 1 {
		t.Fatalf("records = %d", len(w.records))
	}
	r := w.records[0]
	if r.Status != StatusCompleted || len(r.Stack) != 1 || r.Stack[0] != 1 {
		t.Fatalf("record = %+v", r)
	}
	// The agent completed on b.
	if *w.arrived["b"] != 1 {
		t.Error("agent did not arrive at b")
	}
}

func TestSelectDestWithoutDestFails(t *testing.T) {
	w := newWorld(t)
	w.addHost(t, "a", netsim.Position{}, Env{})
	prog := vm.MustAssemble(`
.entry main
main:
	host a_select_dest
	halt
`)
	if _, err := w.platforms["a"].Spawn("lost", prog, nil, "main"); err != nil {
		t.Fatal(err)
	}
	if len(w.records) != 1 || w.records[0].Stack[0] != 0 {
		t.Fatalf("a_select_dest without dest should push 0: %+v", w.records)
	}
}

// directCourierSource is the infrastructure variant of the courier, for the
// paper's next-generation-SMS scenario: "Encapsulating the message in an
// agent, and delivering it to the recipient through a message centre, to be
// executed on the recipient's device."
//
// Instead of roaming via radio neighbors, it addresses the destination
// directly (infrastructure networks reach any up host) and, when the
// recipient is offline, simply waits where it is — typically at a message
// centre it was first sent to — retrying until the recipient appears.
// Global 0 counts delivery attempts.
const directCourierSource = `
.globals 1
.entry main
main:
loop:
	host a_at_dest
	jnz deliver
	host a_select_dest
	jz give_up            ; no destination recorded
	gload 0
	push 1
	add
	gstore 0              ; attempts++
	host a_migrate
	jnz loop              ; arrived: loop re-checks a_at_dest
	push 2000
	host a_sleep          ; recipient offline: wait at the centre
	jmp loop
deliver:
	host a_deliver
	pop
	gload 0
	halt                  ; final stack: [attempts]
give_up:
	push -1
	halt
`

// directCourierProgram is the assembled direct courier.
var directCourierProgram = vm.MustAssemble(directCourierSource)

// TestSMSThroughMessageCentre reproduces the paper's next-generation-SMS
// flow on infrastructure links: the sender hands the message agent to an
// always-on message centre; the recipient is offline; when the recipient
// reappears, the waiting agent completes delivery and executes there.
func TestSMSThroughMessageCentre(t *testing.T) {
	sim := netsim.NewSim(17)
	net := netsim.NewNetwork(sim)
	sn := transport.NewSimNetwork(net)
	platforms := map[string]*Platform{}
	mk := func(name string, class netsim.LinkClass) *Platform {
		class.Loss = 0
		net.AddNode(name, netsim.Position{}, class)
		ep, err := sn.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := core.NewHost(core.Config{
			Name: name, Endpoint: ep, Scheduler: sim,
			Policy: security.Policy{AllowUnsigned: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		p := NewPlatform(h, Env{Seed: int64(len(platforms) + 1)})
		platforms[name] = p
		return p
	}
	sender := mk("phone-a", netsim.GPRS)
	atCentre := countArrivals(mk("sms-centre", netsim.LAN))
	recipient := mk("phone-b", netsim.GPRS)

	var deliveredAt time.Duration
	var payload []byte
	recipient.Host().OnMessage(func(from, topic string, data []byte) {
		deliveredAt = sim.Now()
		payload = data
	})

	// Recipient is off when the message is sent.
	net.SetUp("phone-b", false)

	// The sender's agent goes to the centre first, then waits for phone-b.
	unit := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "sms", Version: "1.0", Kind: lmu.KindAgent},
		Code:     directCourierProgram.Encode(),
		Data:     NewCourierData("phone-b", "sms", []byte("call me")),
	}
	unit.Data[keyEntry] = []byte("main")
	// Send the agent to the centre directly at the kernel level and let it
	// run (and wait) there.
	var sendErr error
	sender.Host().SendAgent("sms-centre", unit, func(err error) { sendErr = err })
	sim.RunFor(10 * time.Second)
	if sendErr != nil {
		t.Fatalf("SendAgent to centre: %v", sendErr)
	}
	// Agent waits at the centre; no delivery while phone-b is down.
	sim.RunFor(30 * time.Second)
	if deliveredAt != 0 {
		t.Fatal("delivered while recipient was off")
	}
	// Phone B comes online; the waiting agent must deliver promptly.
	net.SetUp("phone-b", true)
	wakeAt := sim.Now()
	sim.RunFor(time.Minute)
	if deliveredAt == 0 {
		t.Fatal("message never delivered after recipient came online")
	}
	if string(payload) != "call me" {
		t.Errorf("payload = %q", payload)
	}
	if deliveredAt-wakeAt > 15*time.Second {
		t.Errorf("delivery lag after wake = %v", deliveredAt-wakeAt)
	}
	if *atCentre != 1 {
		t.Error("agent never arrived at the centre")
	}
}
