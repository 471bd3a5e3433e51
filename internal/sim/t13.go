package sim

import (
	"fmt"
	"math"
	"time"

	"logmob/internal/netsim"
	"logmob/internal/scenario"
)

// T13 parameters: the festival crowd of T11, shrunk to blackout-study size
// and pushed through escalating adversity — link loss that ramps up
// mid-run, node churn, and a partition that cuts the field in half and then
// heals. All four mobile-code paradigms run simultaneously over the same
// degraded crowd so their completion rates are directly comparable.
const (
	t13Stages    = 4
	t13Warmup    = 30 * time.Second
	t13BeaconIvl = 15 * time.Second
	t13KitSize   = 2048 // survival-kit component shipped via COD
	t13CSRounds  = 20   // request/reply rounds per CS client
	t13SrcMin    = 150.0
	t13SrcMax    = 350.0
)

// T13 is the blackout experiment: the chaos the paper's paradigms exist
// for, made measurable. A festival field degrades on a schedule — base
// loss, then escalated loss, then a mid-run partition straight through the
// crowd that later heals — while attendees churn. Four workloads run at
// once: Client/Server calls and Remote Evaluation from attendees camped
// near the stages, a Code-On-Demand rollout of a survival-kit component to
// the whole crowd, and Mobile-Agent couriers ferried across the partition.
// The table reports each paradigm's completion rate plus the Reliability
// probe's delivery/retry/repair accounting.
func T13() Experiment {
	return FromSpec("T13", "Blackout: four paradigms under loss, churn and partition",
		`"mobile devices connect to networks in various locations and get `+
			`disconnected from the network by physically moving outside the `+
			`network coverage" — the paper's degraded-connectivity premise, made `+
			`hostile on purpose: escalating loss, node churn and a healing `+
			`partition, with all four mobility paradigms racing the blackout.`,
		map[string]float64{
			"attendees": 600,
			"field":     900,
			"range":     40,
			"couriers":  8,
			"loss":      0.15,
			"churn":     0.02,
			"duration":  240, // seconds of post-warmup run
		},
		t13Spec,
		"expected shape: CS and REV hold up only while their stage stays reachable and degrade with loss; COD rollout stalls during the partition and resumes after the heal; store-carry-forward couriers degrade most gracefully — and the whole table is byte-identical per seed at any -workers count",
	)
}

// t13Spec declares the blackout world for one parameter set: T11's stages
// and attendees, with all four paradigms running — a survival-kit COD
// rollout from the stages, couriers across the (eventually partitioned)
// crowd, and the attendees camped nearest each stage calling it (CS) and
// shipping it an eval job (REV), retrying through the blackout.
func t13Spec(p map[string]float64) *scenario.Spec {
	attendees := int(p["attendees"])
	field := p["field"]
	loss := p["loss"]
	churn := p["churn"]
	duration := time.Duration(math.Max(p["duration"], 30)) * time.Second

	// The blackout schedule, in virtual time from world start: loss
	// escalates twice; the partition wall splits the field down the middle
	// for the central third of the run, then heals.
	escalate1 := t13Warmup + duration/4
	escalate2 := t13Warmup + duration/2
	partitionAt := t13Warmup + duration/3
	healAt := t13Warmup + 2*duration/3

	faults := scenario.Faults{
		// Up to 200ms of extra delay per message.
		Impairment: netsim.Impairment{Drop: loss, JitterTicks: 2},
		Events: []scenario.FaultEvent{
			{At: escalate1, Impairment: netsim.Impairment{Drop: math.Min(1.5*loss, 0.6), JitterTicks: 3}},
			{At: escalate2, Impairment: netsim.Impairment{Drop: math.Min(2.5*loss, 0.75), JitterTicks: 4}},
		},
		Partitions: []scenario.PartitionFault{
			{At: partitionAt, Heal: healAt, SplitX: field / 2},
		},
		Retry:           scenario.RetryFault{Budget: 3, Timeout: 2 * time.Second},
		BeaconMissEvict: 3,
	}
	if churn > 0 {
		faults.Churn = []scenario.ChurnFault{{Pop: "a", ChurnSchedule: netsim.ChurnSchedule{
			Tick: 10 * time.Second, CrashProb: churn,
			Downtime: 20 * time.Second, DowntimeJitterTicks: 2,
		}}}
	}

	return crowd{
		name: "Blackout", ns: "blackout",
		points: "stage", pointCount: t13Stages, side: 2,
		people: "a", peopleCount: attendees,
		field: field, radio: p["range"], beacon: t13BeaconIvl,
		speedMin: 1, speedMax: 5, pause: 5 * time.Second,
		warmup: t13Warmup, duration: duration,
		couriers: int(p["couriers"]), srcMin: t13SrcMin, srcMax: t13SrcMax,
		cod:      &codWave{unit: "survivalkit", version: "1.0", size: t13KitSize, retry: 20 * time.Second, prefix: "kit"},
		csRounds: t13CSRounds,
		faults:   faults,
	}.spec(fmt.Sprintf(
		"Table T13: %d attendees + %d stages, %gx%gm, loss %g→%g, churn %g, partition [%v,%v)",
		attendees, t13Stages, field, field, loss, math.Min(2.5*loss, 0.75), churn,
		partitionAt, healAt))
}
