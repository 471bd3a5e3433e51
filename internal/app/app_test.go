package app

import (
	"testing"
	"time"

	"logmob/internal/agent"
	"logmob/internal/core"
	"logmob/internal/ctxsvc"
	"logmob/internal/netsim"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

// rig is a simulated world for scenario tests.
type rig struct {
	sim   *netsim.Sim
	net   *netsim.Network
	sn    *transport.SimNetwork
	id    *security.Identity
	hosts map[string]*core.Host
}

func newRigFixed(t *testing.T) *rig {
	t.Helper()
	sim := netsim.NewSim(3)
	net := netsim.NewNetwork(sim)
	return &rig{
		sim:   sim,
		net:   net,
		sn:    transport.NewSimNetwork(net),
		id:    security.MustNewIdentity("publisher"),
		hosts: make(map[string]*core.Host),
	}
}

func (r *rig) addHost(t *testing.T, name string, pos netsim.Position, class netsim.LinkClass, mutate func(*core.Config)) *core.Host {
	t.Helper()
	class.Loss = 0
	r.net.AddNode(name, pos, class)
	ep, err := r.sn.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	trust := security.NewTrustStore()
	trust.TrustIdentity(r.id)
	cfg := core.Config{Name: name, Endpoint: ep, Scheduler: r.sim, Trust: trust, ServeEval: true}
	if mutate != nil {
		mutate(&cfg)
	}
	h, err := core.NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.hosts[name] = h
	return h
}

func TestCodecDecodeIsDeterministicWork(t *testing.T) {
	r := newRigFixed(t)
	h := r.addHost(t, "dev", netsim.Position{}, netsim.WLAN, nil)
	codec := BuildCodec(r.id, "ogg", "1.0", 512)
	if err := h.Registry().Put(codec); err != nil {
		t.Fatal(err)
	}
	s1, err := h.RunComponent(CodecName("ogg"), "decode", 100)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	s2, err := h.RunComponent(CodecName("ogg"), "decode", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 1 || s1[0] != s2[0] {
		t.Errorf("checksums differ: %v vs %v", s1, s2)
	}
	if s1[0] == 0 {
		t.Error("checksum is zero; decoder did no work")
	}
}

func TestPlayerFetchesOnceThenHits(t *testing.T) {
	r := newRigFixed(t)
	repo := r.addHost(t, "repo", netsim.Position{}, netsim.LAN, nil)
	dev := r.addHost(t, "dev", netsim.Position{}, netsim.GPRS, nil)
	if err := repo.Publish(BuildCodec(r.id, "ogg", "1.0", 512)); err != nil {
		t.Fatal(err)
	}
	p := &Player{Host: dev, Repo: "repo", Samples: 64}
	var checksums []int64
	for i := 0; i < 3; i++ {
		p.Play("ogg", func(sum int64, hit bool, err error) {
			if err != nil {
				t.Fatalf("play %d: %v", i, err)
			}
			checksums = append(checksums, sum)
		})
		r.sim.RunFor(30 * time.Second)
	}
	if len(checksums) != 3 {
		t.Fatalf("plays completed = %d", len(checksums))
	}
	if p.Fetches != 1 || p.Hits != 2 {
		t.Errorf("Fetches=%d Hits=%d, want 1/2", p.Fetches, p.Hits)
	}
}

func TestPlayerUnknownFormat(t *testing.T) {
	r := newRigFixed(t)
	repo := r.addHost(t, "repo", netsim.Position{}, netsim.LAN, nil)
	dev := r.addHost(t, "dev", netsim.Position{}, netsim.GPRS, nil)
	_ = repo
	p := &Player{Host: dev, Repo: "repo"}
	var gotErr error
	p.Play("nope", func(_ int64, _ bool, err error) { gotErr = err })
	r.sim.RunFor(30 * time.Second)
	if gotErr == nil {
		t.Fatal("expected error for unpublished codec")
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(20, 1.0, 42)
	counts := make([]int, 20)
	for i := 0; i < 10000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[10] {
		t.Errorf("rank 0 (%d) should dominate rank 10 (%d)", counts[0], counts[10])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10000 {
		t.Errorf("total = %d", total)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(4, 0, 1)
	counts := make([]int, 4)
	for i := 0; i < 8000; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if c < 1600 || c > 2400 {
			t.Errorf("rank %d count %d far from uniform 2000", i, c)
		}
	}
}

func TestShopperAgentFindsBestPrice(t *testing.T) {
	r := newRigFixed(t)
	home := r.addHost(t, "home", netsim.Position{}, netsim.GPRS, nil)
	vendors := []string{"shop-a", "shop-b", "shop-c"}
	prices := []float64{9.99, 4.50, 7.25}
	caps := agent.NewCaps(VendorCaps()...)
	for i, v := range vendors {
		vh := r.addHost(t, v, netsim.Position{}, netsim.LAN, nil)
		SetupVendor(vh, map[string]float64{"widget": prices[i]}, 1024)
		agent.NewPlatform(vh, agent.Env{Seed: int64(i + 1), Caps: caps})
	}
	var final agent.Record
	var product string
	homePlat := agent.NewPlatform(home, agent.Env{
		Seed: 9,
		Caps: caps,
		// The unit is lent for the call: read its data space here.
		OnDone: func(rec agent.Record) {
			final = rec
			if rec.Unit.Data != nil {
				product = string(rec.Unit.Data["product"])
			}
		},
	})

	if _, err := homePlat.SpawnUnit(BuildShopper(r.id, "home", "widget", vendors), "main"); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(2 * time.Minute)

	if final.Status != agent.StatusCompleted {
		t.Fatalf("record = %+v", final)
	}
	n := len(final.Stack)
	if n < 2 {
		t.Fatalf("stack = %v", final.Stack)
	}
	bestIdx, bestCents := final.Stack[n-2], final.Stack[n-1]
	if bestCents != 450 || bestIdx != 1 {
		t.Errorf("best = vendor %d @ %d cents, want vendor 1 @ 450", bestIdx, bestCents)
	}
	// The agent must have returned: it finished on the home platform.
	if product != "widget" {
		t.Error("agent data lost")
	}
}

func TestShopperSkipsUnstockedVendor(t *testing.T) {
	r := newRigFixed(t)
	home := r.addHost(t, "home", netsim.Position{}, netsim.GPRS, nil)
	va := r.addHost(t, "shop-a", netsim.Position{}, netsim.LAN, nil)
	vb := r.addHost(t, "shop-b", netsim.Position{}, netsim.LAN, nil)
	SetupVendor(va, map[string]float64{"other": 1}, 64) // does not stock widget
	SetupVendor(vb, map[string]float64{"widget": 3.00}, 64)
	caps := agent.NewCaps(VendorCaps()...)
	agent.NewPlatform(va, agent.Env{Seed: 1, Caps: caps})
	agent.NewPlatform(vb, agent.Env{Seed: 2, Caps: caps})
	var final agent.Record
	hp := agent.NewPlatform(home, agent.Env{Seed: 3, Caps: caps,
		OnDone: func(rec agent.Record) { final = rec }})
	if _, err := hp.SpawnUnit(BuildShopper(r.id, "home", "widget", []string{"shop-a", "shop-b"}), "main"); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(2 * time.Minute)
	n := len(final.Stack)
	if final.Status != agent.StatusCompleted || n < 2 {
		t.Fatalf("record = %+v", final)
	}
	if final.Stack[n-2] != 1 || final.Stack[n-1] != 300 {
		t.Errorf("best = vendor %d @ %d, want vendor 1 @ 300", final.Stack[n-2], final.Stack[n-1])
	}
}

func TestBrowseCS(t *testing.T) {
	r := newRigFixed(t)
	dev := r.addHost(t, "dev", netsim.Position{}, netsim.GPRS, nil)
	var served []core.AuditEvent // both vendors'
	record := func(c *core.Config) {
		c.Audit = func(ev core.AuditEvent) { served = append(served, ev) }
	}
	for i, v := range []string{"shop-a", "shop-b"} {
		vh := r.addHost(t, v, netsim.Position{}, netsim.LAN, record)
		SetupVendor(vh, map[string]float64{"widget": float64(5 - i)}, 256)
	}
	var res BrowseResult
	done := false
	BrowseCS(dev, []string{"shop-a", "shop-b"}, "widget", 3, func(br BrowseResult) {
		res = br
		done = true
	})
	r.sim.RunFor(5 * time.Minute)
	if !done {
		t.Fatal("browse never completed")
	}
	if res.BestVendor != 1 || res.BestCents != 400 {
		t.Errorf("result = %+v", res)
	}
	// 2 vendors x (3 pages + 1 price) = 8 calls, all over the costed link.
	calls := 0
	for _, ev := range served {
		if ev.Kind == "call" && ev.Peer == "dev" {
			calls++
		}
	}
	if calls != 8 {
		t.Errorf("vendors served %d calls, want 8", calls)
	}
	if cost := r.net.UsageOf("dev").Cost; cost <= 0 {
		t.Error("browsing over GPRS should cost money")
	}
}

func TestCinemaWalkIn(t *testing.T) {
	r := newRigFixed(t)
	cinema := r.addHost(t, "cinema", netsim.Position{X: 100, Y: 100}, netsim.WLAN, nil)
	user := r.addHost(t, "user", netsim.Position{X: 300, Y: 100}, netsim.WLAN, nil)
	if err := cinema.Publish(BuildTicketUI(r.id, 12, 4096)); err != nil {
		t.Fatal(err)
	}
	stop := StartGeofencing(r.net, "user", user.Context(),
		[]Geofence{{Name: "cinema-lobby", Center: netsim.Position{X: 100, Y: 100}, Radius: 60}})
	defer stop()

	var readyIn time.Duration
	var wasHit bool
	served := 0
	AutoService(user, "cinema-lobby", "cinema", TicketUIName, "render",
		func(elapsed time.Duration, hit bool, err error) {
			if err != nil {
				t.Fatalf("AutoService: %v", err)
			}
			readyIn, wasHit = elapsed, hit
			served++
		})

	// Walk the user into the lobby.
	r.net.StartMobility(&netsim.Waypath{
		Points: []netsim.Position{{X: 110, Y: 100}},
		Speed:  10,
	}, time.Second, "user")
	r.sim.RunFor(5 * time.Minute)

	if served != 1 {
		t.Fatalf("served = %d", served)
	}
	if wasHit {
		t.Error("first walk-in should be a COD fetch, not a cache hit")
	}
	if readyIn <= 0 || readyIn > 30*time.Second {
		t.Errorf("time-to-service = %v", readyIn)
	}
	if loc := user.Context().GetStr(ctxsvc.KeyLocation, ""); loc != "cinema-lobby" {
		t.Errorf("location = %q", loc)
	}
}

func TestPrimeCountCorrect(t *testing.T) {
	m, err := vm.New(PrimeCountProgram, nil, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[int64]int64{1: 0, 2: 1, 10: 4, 20: 8, 100: 25}
	for n, want := range cases {
		if err := m.SetEntry("main", n); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("Run(%d): %v", n, err)
		}
		stack := m.Stack()
		if len(stack) != 1 || stack[0] != want {
			t.Errorf("primes(%d) = %v, want %d", n, stack, want)
		}
	}
}

func TestOffloadEndToEnd(t *testing.T) {
	// A weak device evals the prime job on a strong server; the server's
	// ComputeRate delays the reply, so offload time includes compute.
	r := newRigFixed(t)
	server := r.addHost(t, "server", netsim.Position{}, netsim.LAN, func(c *core.Config) {
		c.ComputeRate = 1e6 // 1M VM steps/sec
		c.EvalFuel = 100_000_000
	})
	dev := r.addHost(t, "dev", netsim.Position{}, netsim.GPRS, nil)
	_ = server
	job := BuildPrimeJob(r.id)
	var stack []int64
	var evalErr error
	start := r.sim.Now()
	var took time.Duration
	dev.Eval("server", job, "main", []int64{1000}, func(s []int64, err error) {
		stack, evalErr = s, err
		took = r.sim.Now() - start
	})
	r.sim.RunFor(5 * time.Minute)
	if evalErr != nil {
		t.Fatalf("Eval: %v", evalErr)
	}
	if len(stack) != 1 || stack[0] != 168 { // π(1000) = 168
		t.Errorf("stack = %v, want [168]", stack)
	}
	if took <= 0 {
		t.Error("offload took no simulated time")
	}
}
