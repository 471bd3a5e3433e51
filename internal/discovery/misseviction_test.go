package discovery

import (
	"testing"
	"time"

	"logmob/internal/netsim"
)

// beaconPairRig builds two in-range beaconing nodes; a advertises, b
// listens with the given MissEvict setting.
func beaconPairRig(t *testing.T, missEvict int) (*rig, *Beacon, *Beacon) {
	t.Helper()
	r := newRig(t)
	epA := r.addNode(t, "a", netsim.Position{}, netsim.AdHoc)
	epB := r.addNode(t, "b", netsim.Position{X: 5}, netsim.AdHoc)
	ba := NewBeacon(epA, r.sim, 5*time.Second)
	bb := NewBeacon(epB, r.sim, 5*time.Second)
	bb.MissEvict = missEvict
	// Long TTL: without miss eviction the ad survives far beyond the test
	// horizon, which is exactly the dishonest decay the eviction fixes.
	ba.Advertise(Ad{Service: "print/a4", TTL: time.Hour})
	ba.Start()
	bb.Start()
	return r, ba, bb
}

// TestBeaconMissEviction checks that a listener drops a silent provider's
// ads after MissEvict missed intervals, while TTL alone would have kept
// them for an hour.
func TestBeaconMissEviction(t *testing.T) {
	r, ba, bb := beaconPairRig(t, 3)
	r.sim.RunFor(20 * time.Second)
	if bb.CacheSize() != 1 {
		t.Fatalf("precondition: b caches %d ads, want 1", bb.CacheSize())
	}

	// The provider goes silent (crash): after 3 missed intervals its ad
	// must be gone even though its TTL has ~an hour left.
	ba.Stop()
	r.sim.RunFor(14 * time.Second) // under 3 intervals of silence: still cached
	if bb.CacheSize() != 1 {
		t.Fatalf("ad evicted after only %v of silence", 14*time.Second)
	}
	r.sim.RunFor(10 * time.Second) // past 3 intervals: evicted
	if bb.CacheSize() != 0 {
		t.Fatal("silent provider's ad still cached past the miss deadline")
	}
	if bb.Evicted != 1 {
		t.Fatalf("Evicted = %d, want 1", bb.Evicted)
	}
	bb.Find(Query{Service: "print/a4"}, func(ads []Ad) {
		if len(ads) != 0 {
			t.Fatalf("Find still answers from an evicted provider: %v", ads)
		}
	})

	// The provider comes back: the next beacon repopulates the cache.
	ba.Start()
	r.sim.RunFor(10 * time.Second)
	if bb.CacheSize() != 1 {
		t.Fatal("rejoined provider's ad not re-cached")
	}
}

// TestBeaconMissEvictionDisabled pins the inert default: MissEvict=0 keeps
// the pre-adversity behavior (TTL-only expiry), evicts nothing and tracks
// nothing beyond the one record the sender's live ad needs anyway.
func TestBeaconMissEvictionDisabled(t *testing.T) {
	r, ba, bb := beaconPairRig(t, 0)
	r.sim.RunFor(20 * time.Second)
	ba.Stop()
	r.sim.RunFor(5 * time.Minute)
	if bb.CacheSize() != 1 {
		t.Fatal("MissEvict=0 must leave TTL-only expiry in place")
	}
	if len(bb.nbrs) != 1 {
		t.Fatalf("MissEvict=0 must track nothing extra: %d records for one neighbor", len(bb.nbrs))
	}
	if bb.Evicted != 0 {
		t.Fatalf("Evicted = %d with eviction disabled", bb.Evicted)
	}
}

// TestBeaconMissEvictionWhileQuiescent pins the time-driven half of miss
// eviction: a listener that is never queried (no Find/CacheSize/Providers —
// the lazy sweep never runs) must still drop a silent provider's ads on its
// own beacon cadence. Before eviction moved onto the beacon tick, the stale
// ads of a crashed neighbor lingered until somebody happened to poll.
func TestBeaconMissEvictionWhileQuiescent(t *testing.T) {
	r, ba, bb := beaconPairRig(t, 3)
	r.sim.RunFor(20 * time.Second)
	ba.Stop()
	r.sim.RunFor(40 * time.Second) // well past 3 intervals of silence
	// Inspect internals only: the public query paths would themselves sweep.
	if bb.Evicted != 1 {
		t.Fatalf("Evicted = %d without any cache query, want 1 (tick-driven sweep)", bb.Evicted)
	}
	if got := len(bb.nbrs); got != 0 {
		t.Fatalf("silent provider still in the table (%d records) without any query", got)
	}
}
