package sim

import (
	"fmt"
	"time"

	"logmob/internal/scenario"
)

// T15 parameters: a metropolis — another order of magnitude beyond T12's
// city. A hundred thousand residents move at transit speeds across a
// 10km-square metro area dotted with a 5x5 lattice of district kiosks, and
// all four mobile-code paradigms run at once over the same crowd. The
// trip/dwell rhythm (minutes of transit, a long errand dwell at each
// destination) is what the sparse tick engine exploits: at any instant a
// large fraction of the crowd is dwelling and costs the mobility tick
// nothing, while the hierarchical grid keeps every neighbor query local to
// its district rather than the 10km field.
const (
	t15Residents = 100000
	t15Kiosks    = 25      // 5x5 district lattice
	t15Field     = 10000.0 // metres square
	t15Range     = 40.0    // ~5 expected radio neighbors: heavily partitioned
	t15Couriers  = 16
	t15BeaconIvl = 30 * time.Second
	t15Warmup    = 30 * time.Second
	t15PassSize  = 8192 // transit-permit component coefficient table, bytes
	t15Retry     = 25 * time.Second
	t15CSRounds  = 12 // request/reply rounds per CS client
	// Courier source band, metres from the target kiosk: many radio hops
	// out, so couriers must be physically carried across districts.
	t15SrcMin = 400.0
	t15SrcMax = 700.0
	// Transit-speed trips with long errand dwells: the quiescent majority
	// the mobility tick steps only when a dwell ends.
	t15SpeedMin = 10.0
	t15SpeedMax = 30.0
	t15Dwell    = 240 * time.Second
)

// T15 is the metropolis capstone for the hierarchical-grid + sparse-tick
// engine: T12 proved 10k nodes, this proves 100k under the exact same
// bit-identical determinism contract — the rendered tables are identical at
// any -workers count, and every pre-existing golden is unchanged by the
// engine that makes this population tractable.
func T15() Experiment {
	return FromSpec("T15", "Metropolis: 100k nodes, four paradigms, sparse ticking",
		`"the increasing popularity of powerful, small-factor computing `+
			`devices" — taken to metropolitan scale: one hundred thousand `+
			`residents on one ad-hoc field, with Client/Server, Remote `+
			`Evaluation, Code-on-Demand and Mobile-Agent workloads racing over `+
			`the same crowd. Tractable only because quiescent nodes cost zero `+
			`(time-wheel) and queries scale with district density, not field `+
			`size (two-level grid).`,
		map[string]float64{
			"residents": t15Residents,
			"kiosks":    t15Kiosks,
			"field":     t15Field,
			"range":     t15Range,
			"couriers":  t15Couriers,
			"duration":  300, // seconds of post-warmup run
		},
		t15Spec,
		"expected shape: the transit-permit rollout reaches the fraction of the crowd that dwells near a kiosk, couriers cross districts on carried hops, CS/REV complete only for clients camped near their kiosk — and the table is byte-identical per seed at any -workers count",
	)
}

// t15Spec declares the metropolis for one parameter set. Kiosks sit on a
// square district lattice as ordinary ad-hoc nodes: resident contact still
// requires radio range. COD is the transit-permit component, fetched by
// every resident that dwells within kiosk range; couriers run from deep
// inside a district to its kiosk; the residents camped nearest each kiosk
// are its CS and REV clients.
func t15Spec(p map[string]float64) *scenario.Spec {
	residents := int(p["residents"])
	kiosks := int(p["kiosks"])
	field := p["field"]
	radio := p["range"]
	duration := time.Duration(p["duration"]) * time.Second
	return crowd{
		name: "Metropolis", ns: "metro",
		points: "kiosk", pointCount: kiosks,
		people: "r", peopleCount: residents,
		field: field, radio: radio, beacon: t15BeaconIvl,
		speedMin: t15SpeedMin, speedMax: t15SpeedMax, pause: t15Dwell,
		warmup: t15Warmup, duration: duration,
		couriers: int(p["couriers"]), srcMin: t15SrcMin, srcMax: t15SrcMax,
		cod:         &codWave{unit: "transitpermit", version: "3.0", size: t15PassSize, retry: t15Retry, prefix: "permit"},
		csRounds:    t15CSRounds,
		beaconStats: true,
	}.spec(fmt.Sprintf(
		"Table T15: %d residents + %d kiosks, %gx%gm metro, range %gm, %v deadline",
		residents, kiosks, field, field, radio, duration))
}
