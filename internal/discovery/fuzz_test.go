package discovery

import (
	"reflect"
	"testing"
	"time"

	"logmob/internal/wire"
)

// FuzzBeaconHandle feeds the beacon's receive path — the one decoder in this
// package any radio neighbor can reach — arbitrary senders and bytes. A
// listener that already knows one neighbor hears the frame twice. It must
// never panic; a frame the old decode-on-arrival cache would have rejected
// changes nothing at all; an accepted one adds at most its own ads and
// leaves the reads where that cache would; and hearing the same bytes again
// changes only the Heard count.
func FuzzBeaconHandle(f *testing.F) {
	one := encodeFrame(Ad{Service: "print", Provider: "s1", TTL: time.Minute})
	two := encodeFrame(
		Ad{Service: "print", Provider: "s1", Attrs: map[string]string{"dpi": "600"}, TTL: time.Minute},
		Ad{Service: "scan", Provider: "elsewhere"})
	var huge wire.Buffer
	huge.PutUint(1 << 63)
	f.Add("s1", one)
	f.Add("s1", two)
	f.Add("s0", two)
	f.Add("s1", two[:len(two)-3])
	f.Add("s1", huge.Bytes())
	f.Add("", []byte{})

	f.Fuzz(func(t *testing.T, from string, payload []byte) {
		const ivl = 5 * time.Second
		sim, ep, b := tapeListener(ivl)
		b.MissEvict = 3
		oracle := newOracleCache(sim.Now, ivl, 3)
		known := encodeFrame(Ad{Service: "print", Provider: "s0", TTL: time.Hour}, Ad{Service: "scan", Provider: "s0", TTL: time.Hour})
		ep.deliver("s0", known)
		oracle.hear("s0", known)
		sim.RunFor(time.Second)

		// What the old cache makes of the frame decides what it is: accepted
		// frames bump heard, and its ads are however many leases it wrote.
		probe := newOracleCache(sim.Now, ivl, 0)
		probe.hear(from, payload)
		valid, ads := probe.heard == 1, len(probe.leases)
		for _, l := range probe.leases {
			if l.ad.TTL > maxLease {
				t.Skip("a TTL that overflowed the old cache's clock; capped now")
			}
		}

		before, size, records, memo := findAll(b, Query{}), b.CacheSize(), len(b.nbrs), len(b.memo)
		ep.deliver(from, payload)
		if !valid {
			if b.Heard != 1 || len(b.nbrs) != records || len(b.memo) != memo || !reflect.DeepEqual(findAll(b, Query{}), before) {
				t.Fatalf("rejected frame changed state: Heard=%d records %d->%d memo %d->%d", b.Heard, records, len(b.nbrs), memo, len(b.memo))
			}
			return
		}
		oracle.hear(from, payload)
		first := findAll(b, Query{})
		if b.Heard != 2 || b.CacheSize() > size+ads {
			t.Fatalf("Heard=%d, CacheSize %d -> %d for a frame of %d ads", b.Heard, size, b.CacheSize(), ads)
		}
		if want := oracle.find(Query{}, nil); len(first)+len(want) > 0 && !reflect.DeepEqual(first, want) {
			t.Fatalf("after hearing %q from %q:\n got %+v\nwant %+v", payload, from, first, want)
		}
		if b.Providers() != oracle.providers() {
			t.Fatalf("Providers = %d, oracle %d", b.Providers(), oracle.providers())
		}
		records, memo = len(b.nbrs), len(b.memo)
		ep.deliver(from, payload)
		if again := findAll(b, Query{}); b.Heard != 3 || len(b.nbrs) != records || len(b.memo) != memo || !reflect.DeepEqual(again, first) {
			t.Fatalf("second delivery of the same bytes: Heard=%d records %d->%d memo %d->%d\n got %+v\nwant %+v",
				b.Heard, records, len(b.nbrs), memo, len(b.memo), again, first)
		}
	})
}
