package scenario

import (
	"testing"
	"time"

	"logmob/internal/discovery"
	"logmob/internal/netsim"
)

// TestBeaconBatchChurnRejoin is the rejoin test for batched beacons: a node
// whose beacon batch keeps firing while it is churned down must (a) not
// leak beacons into the field while down, (b) decay out of its neighbors'
// caches by TTL, and (c) on SetUp(true) resume both moving (its mobility
// wake passed while it was down, so the next tick steps it) and beaconing
// (the shared batch tick picks it up again — no per-host timer exists to
// restart).
func TestBeaconBatchChurnRejoin(t *testing.T) {
	const ivl = 5 * time.Second
	spec := &Spec{
		Name:  "batch churn rejoin",
		Field: Field{Width: 60, Height: 60},
		Populations: []Population{
			{
				Name: "m", Count: 4, Place: PlaceUniform{},
				Link: netsim.AdHoc, Range: 100, // everyone in radio range
				Beacon: ivl,
				AdSelf: "p/",
				Mobility: &netsim.RandomWaypoint{
					FieldW: 60, FieldH: 60, SpeedMin: 1, SpeedMax: 2, Pause: 0,
				},
				MobilityTick: time.Second,
			},
		},
	}
	w := spec.Compile(3)
	findM1 := func() int {
		n := 0
		w.Beacons["m2"].Find(discovery.Query{Service: "p/m1"}, func(ads []discovery.Ad) {
			n = len(ads)
		})
		return n
	}

	// Two batch ticks in: everyone has cached everyone's self-ad.
	w.Sim.Run(7 * time.Second)
	if findM1() == 0 {
		t.Fatal("m2 never heard m1's beacon while both were up")
	}

	// Churn m1 down across four batch ticks — past its ad TTL (3 intervals).
	w.Net.SetUp("m1", false)
	downPos := w.Net.Node("m1").Pos()
	sentDown := w.Beacons["m1"].Sent
	w.Sim.Run(28 * time.Second)
	if got := w.Net.Node("m1").Pos(); got != downPos {
		t.Fatalf("m1 moved while down: %+v -> %+v", downPos, got)
	}
	if w.Beacons["m1"].Sent == sentDown {
		t.Fatal("batch cadence stopped ticking m1 (Sent frozen); it should tick and be dropped by the down node")
	}
	if findM1() != 0 {
		t.Fatal("m1's ad survived in m2's cache past TTL while m1 was down")
	}

	// Rejoin: the next mobility tick steps m1, the next batch tick
	// broadcasts for m1 again, and m2 re-learns the ad.
	w.Net.SetUp("m1", true)
	w.Sim.Run(36 * time.Second)
	if got := w.Net.Node("m1").Pos(); got == downPos {
		t.Fatal("m1 never resumed moving after SetUp(true): the mobility tick did not step it")
	}
	if findM1() == 0 {
		t.Fatal("m2 never re-heard m1 after rejoin: batched beacon did not resume")
	}
}
