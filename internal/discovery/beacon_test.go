package discovery

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"logmob/internal/netsim"
	"logmob/internal/wire"
)

// encodeFrame builds a beacon frame carrying ads as given (no defaults
// applied, repeats and foreign providers allowed).
func encodeFrame(ads ...Ad) []byte {
	var buf wire.Buffer
	buf.PutUint(uint64(len(ads)))
	for i := range ads {
		ads[i].encode(&buf)
	}
	return buf.Bytes()
}

// tapeListener is a beacon on a tapeEndpoint with the simulator as its clock.
func tapeListener(interval time.Duration) (*netsim.Sim, *tapeEndpoint, *Beacon) {
	sim := netsim.NewSim(1)
	ep := &tapeEndpoint{addr: "listener"}
	return sim, ep, NewBeacon(ep, sim, interval)
}

func findAll(b *Beacon, q Query) []Ad {
	var got []Ad
	b.Find(q, func(ads []Ad) { got = ads })
	return got
}

// TestBeaconMalformedFrameChangesNothing: a frame whose second ad is cut
// short used to leave its first ad in the cache. Now a frame that fails any
// decode check changes neither the table, the memo nor the counters.
func TestBeaconMalformedFrameChangesNothing(t *testing.T) {
	_, ep, b := tapeListener(5 * time.Second)
	good := encodeFrame(Ad{Service: "print", Provider: "s", TTL: time.Hour}, Ad{Service: "scan", Provider: "s", TTL: time.Hour})
	for cut := 1; cut < len(good); cut++ {
		ep.deliver("s", good[:cut])
	}
	ep.deliver("s", nil)
	ep.deliver("s", encodeFrame()[:0])
	huge := wire.Buffer{}
	huge.PutUint(1 << 63)
	ep.deliver("s", huge.Bytes())
	if b.Heard != 0 || b.CacheSize() != 0 || len(b.nbrs) != 0 || len(b.memo) != 0 {
		t.Fatalf("malformed frames left Heard=%d CacheSize=%d records=%d memo=%d, want all 0",
			b.Heard, b.CacheSize(), len(b.nbrs), len(b.memo))
	}
	// And they do not disturb what a good frame put there.
	ep.deliver("s", good)
	ep.deliver("s", good[:len(good)-1])
	if b.Heard != 1 || b.CacheSize() != 2 || len(b.nbrs) != 1 || len(b.memo) != 1 {
		t.Fatalf("after one good frame: Heard=%d CacheSize=%d records=%d memo=%d, want 1/2/1/1",
			b.Heard, b.CacheSize(), len(b.nbrs), len(b.memo))
	}
}

// TestBeaconRepeatInsideFrame: one frame naming a (provider, service) twice
// stores the later ad once, as two puts into a keyed store did.
func TestBeaconRepeatInsideFrame(t *testing.T) {
	_, ep, b := tapeListener(5 * time.Second)
	ep.deliver("s", encodeFrame(
		Ad{Service: "print", Provider: "s", Attrs: map[string]string{"v": "1"}, TTL: time.Hour},
		Ad{Service: "scan", Provider: "s", TTL: time.Hour},
		Ad{Service: "print", Provider: "s", Attrs: map[string]string{"v": "2"}, TTL: time.Hour},
	))
	got := findAll(b, Query{Service: "print"})
	if len(got) != 1 || got[0].Attrs["v"] != "2" || b.CacheSize() != 2 || b.Providers() != 1 {
		t.Fatalf("Find=%+v CacheSize=%d Providers=%d, want the v=2 ad once, 2, 1", got, b.CacheSize(), b.Providers())
	}
}

// TestBeaconForeignProvider pins what happens when an ad names a provider
// other than the transport sender, and when two senders vouch for the same
// (provider, service): the most recently heard live claim is the one
// reported, and no read reports the pair twice.
func TestBeaconForeignProvider(t *testing.T) {
	sim, ep, b := tapeListener(5 * time.Second)
	relayA := encodeFrame(Ad{Service: "print", Provider: "printer", Attrs: map[string]string{"via": "a"}, TTL: time.Minute})
	relayB := encodeFrame(
		Ad{Service: "print", Provider: "printer", Attrs: map[string]string{"via": "b"}, TTL: 10 * time.Second},
		Ad{Service: "scan", Provider: "b", TTL: time.Minute})
	ep.deliver("a", relayA)
	ep.deliver("b", relayB) // same instant, later reception: b's claim wins
	check := func(when string, via string, size, providers int) {
		t.Helper()
		got := findAll(b, Query{Service: "print"})
		if via == "" {
			if len(got) != 0 {
				t.Fatalf("%s: Find(print) = %+v, want none", when, got)
			}
		} else if len(got) != 1 || got[0].Provider != "printer" || got[0].Attrs["via"] != via {
			t.Fatalf("%s: Find(print) = %+v, want printer's ad via %s exactly once", when, got, via)
		}
		if b.CacheSize() != size || b.Providers() != providers {
			t.Fatalf("%s: CacheSize=%d Providers=%d, want %d and %d", when, b.CacheSize(), b.Providers(), size, providers)
		}
	}
	check("both heard", "b", 2, 2)
	if got := findAll(b, Query{Attrs: map[string]string{"via": "a"}}); len(got) != 0 {
		t.Fatalf("the overridden claim still answers a query: %+v", got)
	}
	ep.deliver("a", relayA) // a repeats itself: now a's is the later reception
	check("a heard again", "a", 2, 2)
	ep.deliver("b", relayB)
	sim.RunFor(11 * time.Second) // b's 10 s claim ran out; a's minute has not
	check("b's claim expired", "a", 2, 2)
	sim.RunFor(time.Minute)
	check("all expired", "", 0, 0)
	if len(b.nbrs) != 0 || len(b.memo) != 0 {
		t.Fatalf("%d records, %d memo entries left after everything expired", len(b.nbrs), len(b.memo))
	}
}

// TestBeaconRepeatedClaimsInHearingOrder: two senders claim the same
// (provider, service), heard at one instant and then again, unchanged and in
// the opposite order. The table keeps records in order of last hearing, so
// the claim heard second in the second round is the one reported.
func TestBeaconRepeatedClaimsInHearingOrder(t *testing.T) {
	_, ep, b := tapeListener(5 * time.Second)
	frames := make(map[string][]byte)
	for _, via := range []string{"a", "b"} {
		frames[via] = encodeFrame(Ad{Service: "print", Provider: "printer", Attrs: map[string]string{"via": via}, TTL: time.Minute})
		ep.deliver(via, frames[via])
	}
	for _, round := range []struct{ first, second, want string }{{"b", "a", "a"}, {"a", "b", "b"}} {
		ep.deliver(round.first, frames[round.first])
		ep.deliver(round.second, frames[round.second])
		got := findAll(b, Query{Service: "print"})
		if len(got) != 1 || got[0].Attrs["via"] != round.want {
			t.Fatalf("heard %s then %s: Find(print) = %+v, want the claim via %s once", round.first, round.second, got, round.want)
		}
		if len(b.nbrs) != 2 || b.CacheSize() != 1 {
			t.Fatalf("heard %s then %s: %d records, CacheSize %d; want 2 and 1", round.first, round.second, len(b.nbrs), b.CacheSize())
		}
	}
}

// TestNeighborRecordSize: a listener keeps one record per neighbor, and a
// crowd keeps hundreds of thousands of them.
func TestNeighborRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(neighbor{}); got != 24 {
		t.Errorf("neighbor is %d bytes, want 24", got)
	}
}

// TestBeaconForeignProviderMissEviction: a relayed ad decays with the sender
// that vouched for it, not with the provider it names.
func TestBeaconForeignProviderMissEviction(t *testing.T) {
	sim, ep, b := tapeListener(5 * time.Second)
	b.MissEvict = 2
	ep.deliver("relay", encodeFrame(Ad{Service: "print", Provider: "printer", TTL: time.Hour}))
	sim.RunFor(11 * time.Second)
	if b.CacheSize() != 0 || b.Evicted != 1 {
		t.Fatalf("silent relay: CacheSize=%d Evicted=%d, want 0 and 1", b.CacheSize(), b.Evicted)
	}
}

// TestBeaconWithdrawExpiresByTTL pins Withdraw's promise: the changed frame
// replaces what a neighbor holds for the services it still carries and does
// not delete the withdrawn one early — that runs out by its own TTL, counted
// from when it was last heard.
func TestBeaconWithdrawExpiresByTTL(t *testing.T) {
	sim, lep, l := tapeListener(5 * time.Second)
	s := &tapeSender{ep: &tapeEndpoint{addr: "s"}}
	s.b = NewBeacon(s.ep, sim, 5*time.Second)
	s.b.Advertise(Ad{Service: "print", TTL: 30 * time.Second})
	s.b.Advertise(Ad{Service: "scan", TTL: 30 * time.Second})
	lep.deliver("s", s.frameNow()) // t=0: print, scan
	sim.RunFor(10 * time.Second)
	s.b.Withdraw("print")
	s.b.Advertise(Ad{Service: "scan", Attrs: map[string]string{"dpi": "600"}, TTL: 30 * time.Second})
	lep.deliver("s", s.frameNow()) // t=10: scan only, re-described
	if l.CacheSize() != 2 || l.Providers() != 1 {
		t.Fatalf("right after the withdrawal: CacheSize=%d Providers=%d, want 2 and 1", l.CacheSize(), l.Providers())
	}
	if got := findAll(l, Query{Service: "scan"}); len(got) != 1 || got[0].Attrs["dpi"] != "600" {
		t.Fatalf("Find(scan) = %+v, want the re-described ad once", got)
	}
	sim.RunFor(19 * time.Second) // t=29: print heard at 0 still has a second to run
	if got := findAll(l, Query{Service: "print"}); len(got) != 1 {
		t.Fatalf("withdrawn ad gone at %v, before its TTL", sim.Now())
	}
	sim.RunFor(2 * time.Second) // t=31: print expired, scan (heard at 10) has not
	if len(findAll(l, Query{Service: "print"})) != 0 || l.CacheSize() != 1 {
		t.Fatalf("at %v: withdrawn ad should have expired alone; CacheSize=%d", sim.Now(), l.CacheSize())
	}
	// Advertised again, it is simply back: nothing stale shadows it.
	s.b.Advertise(Ad{Service: "print", TTL: 30 * time.Second})
	lep.deliver("s", s.frameNow())
	if l.CacheSize() != 2 || l.Providers() != 1 {
		t.Fatalf("after re-advertising: CacheSize=%d Providers=%d, want 2 and 1", l.CacheSize(), l.Providers())
	}
}

// TestBeaconMissEvictSetLate: the miss deadline is read at sweep time, so
// turning eviction on covers neighbors heard before it was set (the keyed
// cache only tracked those heard after).
func TestBeaconMissEvictSetLate(t *testing.T) {
	sim, ep, b := tapeListener(5 * time.Second)
	ep.deliver("s", encodeFrame(Ad{Service: "print", Provider: "s", TTL: time.Hour}))
	sim.RunFor(time.Minute)
	if b.CacheSize() != 1 {
		t.Fatal("MissEvict=0 must leave TTL-only expiry in place")
	}
	b.MissEvict = 3
	if b.CacheSize() != 0 || b.Evicted != 1 {
		t.Fatalf("MissEvict set late: CacheSize=%d Evicted=%d, want 0 and 1", b.CacheSize(), b.Evicted)
	}
}

// TestBeaconHearAllocs pins the cost of the two receptions that make up a
// beacon round: a known sender repeating its frame, and a sender new to this
// listener whose frame another listener of the same memo already decoded.
func TestBeaconHearAllocs(t *testing.T) {
	const ivl = 5 * time.Second
	sim := netsim.NewSim(1)
	g := NewBeaconBatch(sim, ivl)
	first := NewBeacon(&tapeEndpoint{addr: "first"}, sim, ivl)
	l := NewBeacon(&tapeEndpoint{addr: "listener"}, sim, ivl)
	g.Add(first)
	g.Add(l)

	frames := make(map[string][]byte)
	var senders []string
	for i := 0; i < 64; i++ {
		from := fmt.Sprintf("node-%02d", i)
		senders = append(senders, from)
		frames[from] = encodeFrame(Ad{Service: "presence", Provider: from, TTL: 3 * ivl})
		first.handle(from, frames[from]) // decoded once, here
	}
	l.handle(senders[0], frames[senders[0]])
	if got := testing.AllocsPerRun(100, func() { l.handle(senders[0], frames[senders[0]]) }); got != 0 {
		t.Errorf("hearing a known sender's unchanged frame allocates %v times, want 0", got)
	}

	// Give the table its capacity, empty it through the tick-driven sweep,
	// then hear the same 64 senders as newcomers.
	for _, from := range senders {
		l.handle(from, frames[from])
	}
	sim.RunFor(4 * ivl)
	if len(l.nbrs) != 0 {
		t.Fatalf("table holds %d records after every lease ran out", len(l.nbrs))
	}
	for _, from := range senders {
		first.handle(from, frames[from]) // the other listener still holds the decoding
	}
	next := 0
	got := testing.AllocsPerRun(len(senders)-1, func() {
		l.handle(senders[next], frames[senders[next]])
		next++
	})
	if got != 0 {
		t.Errorf("hearing a new sender's memoised frame allocates %v times, want 0", got)
	}
	if len(l.nbrs) != len(senders) {
		t.Fatalf("table holds %d records, want %d", len(l.nbrs), len(senders))
	}
}

// TestBeaconMemoBounded: ten thousand distinct senders pass one listener.
// Once their leases run out a single tick — no query — takes table and memo
// back down to the neighbors still being heard.
func TestBeaconMemoBounded(t *testing.T) {
	const ivl = 5 * time.Second
	sim, ep, b := tapeListener(ivl)
	b.Advertise(Ad{Service: "presence"})
	b.Start()
	stay := encodeFrame(Ad{Service: "presence", Provider: "stayer", TTL: 3 * ivl})
	for i := 0; i < 10000; i++ {
		from := fmt.Sprintf("passer-%05d", i)
		ep.deliver(from, encodeFrame(Ad{Service: "presence", Provider: from, TTL: 3 * ivl}))
	}
	if len(b.nbrs) != 10000 || len(b.memo) != 10000 {
		t.Fatalf("precondition: %d records, %d memo entries, want 10000 each", len(b.nbrs), len(b.memo))
	}
	for i := 0; i < 4; i++ {
		ep.deliver("stayer", stay)
		sim.RunFor(ivl)
	}
	if len(b.nbrs) != 1 || len(b.memo) != 1 || b.memo["stayer"] == nil {
		t.Fatalf("after the sweep: %d records, %d memo entries, want only the stayer's", len(b.nbrs), len(b.memo))
	}
	if b.memo["stayer"].refs != 1 {
		t.Fatalf("stayer's frame has %d references, want 1", b.memo["stayer"].refs)
	}
}

// TestBeaconBatchSharesDecoding: n listeners of one batch hearing one frame
// share a single decoding; a beacon outside the batch keeps its own.
func TestBeaconBatchSharesDecoding(t *testing.T) {
	const ivl = 5 * time.Second
	sim := netsim.NewSim(1)
	g := NewBeaconBatch(sim, ivl)
	frame := encodeFrame(Ad{Service: "presence", Provider: "s", Attrs: map[string]string{"k": "v"}, TTL: time.Minute})
	var members []*Beacon
	for i := 0; i < 5; i++ {
		ep := &tapeEndpoint{addr: fmt.Sprintf("m%d", i)}
		b := NewBeacon(ep, sim, ivl)
		g.Add(b)
		ep.deliver("s", frame)
		members = append(members, b)
	}
	for _, b := range members[1:] {
		if b.nbrs[0].frame != members[0].nbrs[0].frame {
			t.Fatal("two members of one batch hold separate decodings of one frame")
		}
	}
	if f := g.memo["s"]; f == nil || f.refs != len(members) {
		t.Fatalf("batch memo entry %+v, want one frame with %d references", f, len(members))
	}
	lone := NewBeacon(&tapeEndpoint{addr: "lone"}, sim, ivl)
	lone.handle("s", frame)
	if lone.nbrs[0].frame == members[0].nbrs[0].frame {
		t.Fatal("a beacon outside the batch shares the batch's memo")
	}
}

// TestBeaconOwnAds pins the beacon's own-ad list. Whatever order services
// are advertised in, the frame carries them by service, the bytes
// encodeFrame gives for the sorted set. Advertising a service again
// replaces its ad. Withdrawing a service that is not advertised changes
// nothing, not even the cached frame.
func TestBeaconOwnAds(t *testing.T) {
	const ivl = 5 * time.Second
	services := []string{"", "a", "a/b", "ab", "b", "cinema", "market", "zz"}
	sorted := make([]Ad, len(services))
	for i, s := range services {
		sorted[i] = Ad{Service: s, Provider: "me", TTL: 3 * ivl}
	}
	want := encodeFrame(sorted...)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		ep := &tapeEndpoint{addr: "me"}
		s := &tapeSender{ep: ep, b: NewBeacon(ep, netsim.NewSim(1), ivl)}
		for _, i := range rng.Perm(len(services)) {
			s.b.Advertise(Ad{Service: services[i]})
		}
		if got := s.frameNow(); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: shuffled Advertise gives frame %x, want %x", trial, got, want)
		}
	}

	ep := &tapeEndpoint{addr: "me"}
	s := &tapeSender{ep: ep, b: NewBeacon(ep, netsim.NewSim(1), ivl)}
	s.b.Advertise(Ad{Service: "b"})
	s.b.Advertise(Ad{Service: "a"})
	s.b.Advertise(Ad{Service: "b", TTL: time.Minute, Attrs: map[string]string{"v": "2"}})
	a := Ad{Service: "a", Provider: "me", TTL: 3 * ivl}
	b := Ad{Service: "b", Provider: "me", TTL: time.Minute, Attrs: map[string]string{"v": "2"}}
	frame := s.frameNow()
	if want := encodeFrame(a, b); !bytes.Equal(frame, want) {
		t.Fatalf("re-advertising b gives frame %x, want %x", frame, want)
	}
	for _, unknown := range []string{"", "0", "aa", "c"} {
		s.b.Withdraw(unknown)
		if got := s.frameNow(); &got[0] != &frame[0] {
			t.Fatalf("withdrawing unknown service %q rebuilt the frame", unknown)
		}
	}
	s.b.Withdraw("a")
	if got, want := s.frameNow(), encodeFrame(b); !bytes.Equal(got, want) {
		t.Fatalf("after withdrawing a the frame is %x, want %x", got, want)
	}
}
