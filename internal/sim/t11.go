package sim

import (
	"fmt"
	"time"

	"logmob/internal/scenario"
)

// T11 parameters: a festival crowd — thousands of short-range devices over
// a large field, dense enough for local piconets but sparse enough that the
// crowd stays partitioned and couriers must be ferried across gaps by
// mobility. The population sizes, field and radio range are sweepable
// (-sweep attendees=100,500,2000); the rest stay constants.
const (
	t11Attendees = 2000
	t11Stages    = 4
	t11Field     = 1500.0 // metres square
	t11Range     = 40.0   // ~4.5 expected radio neighbors: partitioned
	t11BeaconIvl = 20 * time.Second
	t11Warmup    = 60 * time.Second
	t11Deadline  = 8 * time.Minute
	t11Couriers  = 8
	// Courier source band: spawn each courier on an attendee currently
	// 250-450m from its target stage, far beyond one radio hop.
	t11SrcMin = 250.0
	t11SrcMax = 450.0
)

// T11 is the large-scale scenario the grid-indexed simulator exists for:
// beacon-based discovery and store-carry-forward couriers in a
// 2000-node ad-hoc crowd, a field two orders of magnitude beyond the other
// experiments. It is also the flagship of the declarative scenario API —
// the whole world, workload and measurement are one scenario.Spec.
func T11() Experiment {
	return FromSpec("T11", "Festival scale-out: 2000-node ad-hoc crowd",
		`"the increasing popularity of powerful, small-factor `+
			`computing devices" — the paper's motivating trend, pushed to a `+
			`crowd-scale ad-hoc field: discovery and agent messaging must keep `+
			`working (and the simulator must stay tractable) at thousands of nodes.`,
		map[string]float64{
			"attendees": t11Attendees,
			"stages":    t11Stages,
			"field":     t11Field,
			"range":     t11Range,
			"couriers":  t11Couriers,
		},
		t11Spec,
		"expected shape: coverage stays local (beacons are one-hop), most couriers cross their partition within the deadline, and the run stays tractable because connectivity queries are grid-indexed",
	)
}

// t11Spec declares the festival world for one parameter set. Stages are
// fixed infrastructure-free service points at the quarter points of the
// field, advertising over beacons like everyone else; attendees roam under
// random waypoint, so every node is both a beacon source and a courier
// relay. Couriers run from attendees deep in the crowd to a stage.
func t11Spec(p map[string]float64) *scenario.Spec {
	attendees := int(p["attendees"])
	stages := int(p["stages"])
	field := p["field"]
	radio := p["range"]
	return crowd{
		name: "Festival scale-out", ns: "festival",
		points: "stage", pointCount: stages, side: 2,
		people: "a", peopleCount: attendees,
		field: field, radio: radio, beacon: t11BeaconIvl,
		speedMin: 1, speedMax: 5, pause: 5 * time.Second,
		warmup: t11Warmup, duration: t11Deadline,
		couriers: int(p["couriers"]), srcMin: t11SrcMin, srcMax: t11SrcMax,
		beaconStats: true, beaconCache: true,
	}.spec(fmt.Sprintf(
		"Table T11: %d attendees + %d stages, %gx%gm field, range %gm, %v deadline",
		attendees, stages, field, field, radio, t11Deadline))
}
