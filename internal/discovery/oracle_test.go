package discovery

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"logmob/internal/netsim"
	"logmob/internal/transport"
	"logmob/internal/wire"
)

// oracleCache is the beacon cache as it was before the neighbor table: one
// lease per (provider, service) in a keyed map, a lastHeard map beside it,
// every frame decoded on arrival. It is the reference the differential test
// holds Beacon's reads against.
type oracleCache struct {
	now       func() time.Duration
	interval  time.Duration
	missEvict int
	leases    map[string]lease // key: provider + "\x00" + service
	lastHeard map[string]time.Duration
	heard     int64
}

func newOracleCache(now func() time.Duration, interval time.Duration, missEvict int) *oracleCache {
	return &oracleCache{now: now, interval: interval, missEvict: missEvict,
		leases: make(map[string]lease), lastHeard: make(map[string]time.Duration)}
}

func (o *oracleCache) hear(from string, payload []byte) {
	r := wire.NewReader(payload)
	n := r.Uint()
	if n > uint64(len(payload)) {
		return
	}
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		ad := decodeAd(r)
		if r.Err() == nil && ad.Service != "" {
			ttl := ad.TTL
			if ttl <= 0 {
				ttl = time.Minute
			}
			o.leases[ad.Provider+"\x00"+ad.Service] = lease{ad: ad, expires: o.now() + ttl}
		}
	}
	if r.Err() == nil {
		o.heard++
		if o.missEvict > 0 {
			o.lastHeard[from] = o.now()
		}
	}
}

func (o *oracleCache) evictMissing() {
	now := o.now()
	deadline := time.Duration(o.missEvict) * o.interval
	for provider, heard := range o.lastHeard {
		if now-heard > deadline {
			prefix := provider + "\x00"
			for key := range o.leases {
				if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
					delete(o.leases, key)
				}
			}
			delete(o.lastHeard, provider)
		}
	}
}

// live sweeps like every old read did, then returns the surviving ads.
func (o *oracleCache) live() []Ad {
	o.evictMissing()
	now := o.now()
	var out []Ad
	for key, l := range o.leases {
		if l.expires <= now {
			delete(o.leases, key)
			continue
		}
		out = append(out, l.ad)
	}
	return out
}

// find mirrors the old Beacon.Find: cached matches, then the listener's own.
func (o *oracleCache) find(q Query, local []Ad) []Ad {
	var out []Ad
	for _, ad := range o.live() {
		if q.Matches(ad) {
			out = append(out, ad)
		}
	}
	sortAds(out)
	for _, ad := range local {
		if q.Matches(ad) {
			out = append(out, ad)
		}
	}
	sortAds(out)
	return out
}

func (o *oracleCache) size() int { return len(o.live()) }

func (o *oracleCache) providers() int {
	seen := make(map[string]bool)
	for _, ad := range o.live() {
		seen[ad.Provider] = true
	}
	return len(seen)
}

// tapeEndpoint is an endpoint with no network behind it: a test delivers to
// its handler by hand and reads back what it last broadcast.
type tapeEndpoint struct {
	addr        string
	handler     transport.Handler
	last        []byte
	onBroadcast func() // optional: runs on every Broadcast
}

func (e *tapeEndpoint) Addr() string              { return e.addr }
func (e *tapeEndpoint) Send(string, []byte) error { return nil }
func (e *tapeEndpoint) Broadcast(p []byte) int {
	e.last = p
	if e.onBroadcast != nil {
		e.onBroadcast()
	}
	return 1
}
func (e *tapeEndpoint) Neighbors() []string               { return nil }
func (e *tapeEndpoint) SetHandler(h transport.Handler)    { e.handler = h }
func (e *tapeEndpoint) Close() error                      { return nil }
func (e *tapeEndpoint) deliver(from string, frame []byte) { deliverScribbled(e.handler, from, frame) }

// deliverScribbled hands the handler a throw-away copy of frame and ruins it
// afterwards, the way a transport recycles its receive buffer: a listener
// that kept an alias instead of a copy reads garbage from then on.
func deliverScribbled(h transport.Handler, from string, frame []byte) {
	p := append([]byte(nil), frame...)
	h(from, p)
	for i := range p {
		p[i] = 0xff
	}
}

// tapeSender is a real Beacon on a tapeEndpoint: Advertise and Withdraw go
// through the production API and frameNow returns what it would broadcast.
type tapeSender struct {
	ep     *tapeEndpoint
	b      *Beacon
	silent bool
}

func (s *tapeSender) frameNow() []byte {
	s.ep.last = nil
	s.b.tickOnce()
	return s.ep.last
}

// TestBeaconMatchesAdTableOracle drives a listening Beacon and the old keyed
// cache with one seeded random tape — hear, advertise, withdraw (so frames
// change under the listener), advance the clock (so leases run out, the
// listener's tick sweeps, miss deadlines pass), senders falling silent and
// coming back, the listener stopping and restarting — and compares every
// read after every step; reads sweep, so a second pass reads only every
// seventh step and leaves the sweeping in between to the listener's tick.
// Providers keep their own address, as everything in the repo does; foreign
// providers have their own tests in beacon_test.go.
func TestBeaconMatchesAdTableOracle(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 800
	}
	for _, miss := range []int{0, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("miss%d/seed%d", miss, seed), func(t *testing.T) {
				runOracleTape(t, seed, miss, steps, 1)
				runOracleTape(t, seed, miss, steps, 7)
			})
		}
	}
}

func runOracleTape(t *testing.T, seed int64, miss, steps, readEvery int) {
	const (
		ivl      = 5 * time.Second
		nSenders = 60
	)
	rng := rand.New(rand.NewSource(seed))
	sim := netsim.NewSim(seed)
	services := []string{"svc/0", "svc/1", "svc/2", "svc/3", "presence"}
	ttls := []time.Duration{0, 0, 2 * time.Second, 12 * time.Second, 40 * time.Second, time.Hour}
	zones := []string{"", "a", "b"}
	randomAd := func() Ad {
		ad := Ad{Service: services[rng.Intn(len(services))], TTL: ttls[rng.Intn(len(ttls))]}
		if z := zones[rng.Intn(len(zones))]; z != "" {
			ad.Attrs = map[string]string{"zone": z}
		}
		return ad
	}

	lep := &tapeEndpoint{addr: "listener"}
	l := NewBeacon(lep, sim, ivl)
	l.MissEvict = miss
	l.Advertise(Ad{Service: "svc/0", Attrs: map[string]string{"zone": "a"}})
	oracle := newOracleCache(sim.Now, ivl, miss)
	// The old beacon ran evictMissing at the top of every cycle, right before
	// it broadcast; the listener's own broadcasts are the oracle's ticks.
	lep.onBroadcast = oracle.evictMissing
	l.Start()

	senders := make([]*tapeSender, nSenders)
	for i := range senders {
		ep := &tapeEndpoint{addr: fmt.Sprintf("node-%03d", i)}
		senders[i] = &tapeSender{ep: ep, b: NewBeacon(ep, sim, ivl)}
		senders[i].b.Advertise(randomAd())
	}

	queries := []Query{
		{},
		{Service: "svc/1"},
		{Service: "presence"},
		{Attrs: map[string]string{"zone": "a"}},
		{Service: "svc/0", Attrs: map[string]string{"zone": "b"}},
	}
	for step := 0; step < steps; step++ {
		// Half the steps land on eight regulars, so one sender is heard,
		// changed, and heard again within a lease; the rest pass through.
		s := senders[rng.Intn(nSenders)]
		if rng.Intn(2) == 0 {
			s = senders[rng.Intn(8)]
		}
		what := ""
		switch p := rng.Intn(100); {
		case p < 55:
			what = "hear " + s.ep.addr
			if frame := s.frameNow(); frame != nil && !s.silent {
				oracle.hear(s.ep.addr, frame)
				lep.deliver(s.ep.addr, frame)
			}
		case p < 65:
			what = "advertise " + s.ep.addr
			s.b.Advertise(randomAd())
		case p < 72:
			what = "withdraw " + s.ep.addr
			s.b.Withdraw(services[rng.Intn(len(services))])
		case p < 92:
			d := time.Duration(rng.Int63n(int64(2 * ivl)))
			what = fmt.Sprint("advance ", d)
			sim.RunFor(d)
		case p < 96:
			what = "silence toggle " + s.ep.addr
			s.silent = !s.silent
		case p < 98:
			what = "listener stop"
			l.Stop()
		default:
			what = "listener start"
			l.Start()
		}

		if step%readEvery != 0 {
			continue
		}
		for _, q := range queries {
			var got []Ad
			l.Find(q, func(ads []Ad) { got = ads })
			if want := oracle.find(q, l.local); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%s) at %v: Find(%+v)\n got %+v\nwant %+v", step, what, sim.Now(), q, got, want)
			}
		}
		if got, want := l.CacheSize(), oracle.size(); got != want {
			t.Fatalf("step %d (%s): CacheSize %d, oracle %d", step, what, got, want)
		}
		if got, want := l.Providers(), oracle.providers(); got != want {
			t.Fatalf("step %d (%s): Providers %d, oracle %d", step, what, got, want)
		}
		if l.Heard != oracle.heard {
			t.Fatalf("step %d (%s): Heard %d, oracle %d", step, what, l.Heard, oracle.heard)
		}
	}
	if l.Heard < int64(steps)/4 {
		t.Fatalf("tape too quiet to mean anything: %d receptions in %d steps", l.Heard, steps)
	}
}
