package sim

import (
	"fmt"
	"time"

	"logmob/internal/scenario"
)

// T12 parameters: a city — an order of magnitude beyond T11's festival.
// Ten thousand residents roam a 3km-square downtown dotted with a lattice
// of municipal info kiosks. Two mobile-code paradigms run at once over the
// same crowd: a code-on-demand wave (every resident fetches the city-guide
// component from whichever kiosk it roams past) and mobile-agent couriers
// (store-carry-forward messages ferried to kiosks across the partitioned
// crowd). The population, kiosk count, field and radio range are sweepable.
const (
	t12Residents = 10000
	t12Kiosks    = 9      // 3x3 municipal lattice
	t12Field     = 3000.0 // metres square
	t12Range     = 40.0   // ~4.5 expected radio neighbors: partitioned
	t12Couriers  = 12
	t12BeaconIvl = 25 * time.Second
	t12Warmup    = 30 * time.Second
	t12Deadline  = 5 * time.Minute
	t12GuideSize = 4096 // city-guide component coefficient table, bytes
	t12Retry     = 20 * time.Second
	// Courier source band, metres from the target kiosk: well beyond one
	// radio hop, so couriers must be carried.
	t12SrcMin = 250.0
	t12SrcMax = 450.0
)

// T12 is the city-scale workload the parallel tick pipeline exists for:
// 10k nodes is wall-clock-bound on the serial engine (the per-tick mobility
// and neighbor-recomputation work dominates), so this experiment is only
// pleasant to run with -workers > 1 — while producing bit-identical tables
// at any worker count.
func T12() Experiment {
	return FromSpec("T12", "City scale-out: 10k-node mixed-paradigm downtown",
		`"the increasing popularity of powerful, small-factor computing `+
			`devices" — pushed to city scale: a code-on-demand update wave and `+
			`mobile-agent couriers sharing one 10k-node ad-hoc crowd. The `+
			`simulator must stay tractable, which is what the sharded two-phase `+
			`tick pipeline buys.`,
		map[string]float64{
			"residents": t12Residents,
			"kiosks":    t12Kiosks,
			"field":     t12Field,
			"range":     t12Range,
			"couriers":  t12Couriers,
		},
		t12Spec,
		"expected shape: the guide rolls out to the fraction of the crowd that roams past a kiosk before the deadline, most couriers cross their partition, and wall-clock scales with -workers while every table stays byte-identical to the serial engine",
	)
}

// t12Spec declares the city for one parameter set. Kiosks sit on a square
// lattice and are ordinary ad-hoc nodes (municipal hotspots, not
// infrastructure): resident contact still requires radio range. COD is the
// city-guide component, published on every kiosk and fetched by every
// resident that roams into kiosk range; MA is store-carry-forward couriers
// from deep in the crowd to a kiosk.
func t12Spec(p map[string]float64) *scenario.Spec {
	residents := int(p["residents"])
	kiosks := int(p["kiosks"])
	field := p["field"]
	radio := p["range"]
	return crowd{
		name: "City scale-out", ns: "city",
		points: "kiosk", pointCount: kiosks,
		people: "r", peopleCount: residents,
		field: field, radio: radio, beacon: t12BeaconIvl,
		speedMin: 1, speedMax: 5, pause: 5 * time.Second,
		warmup: t12Warmup, duration: t12Deadline,
		couriers: int(p["couriers"]), srcMin: t12SrcMin, srcMax: t12SrcMax,
		cod:         &codWave{unit: "cityguide", version: "2.0", size: t12GuideSize, retry: t12Retry, prefix: "guide"},
		beaconStats: true,
	}.spec(fmt.Sprintf(
		"Table T12: %d residents + %d kiosks, %gx%gm field, range %gm, %v deadline",
		residents, kiosks, field, field, radio, t12Deadline))
}
