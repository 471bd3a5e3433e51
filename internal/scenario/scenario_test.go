package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"logmob/internal/metrics"
	"logmob/internal/netsim"
)

// twoNodeSpec is a minimal wired world: one LAN server, one GPRS device.
func twoNodeSpec(workload Workload, d time.Duration) *Spec {
	return &Spec{
		Name: "two nodes",
		Populations: []Population{
			{Name: "server", Link: netsim.LAN},
			{Name: "device", Link: netsim.GPRS},
		},
		Duration:  d,
		Workloads: []Workload{workload},
	}
}

func TestCompilePopulations(t *testing.T) {
	spec := &Spec{
		Field: Field{Width: 100, Height: 100},
		Populations: []Population{
			{Name: "hub", Link: netsim.LAN},
			{Name: "n", Count: 3, Place: PlaceUniform{}, Link: netsim.AdHoc,
				Agents: true, AgentSeedOffset: 1, Beacon: 10 * time.Second},
			{Name: "x", Count: 2, NameOf: func(i int) string { return fmt.Sprintf("x-%02d", i) },
				Link: netsim.LAN},
		},
	}
	w := spec.Compile(7)
	for _, name := range []string{"hub", "n0", "n1", "n2", "x-00", "x-01"} {
		if w.Hosts[name] == nil {
			t.Errorf("host %q not compiled", name)
		}
	}
	if got := strings.Join(w.Pops["n"], ","); got != "n0,n1,n2" {
		t.Errorf("Pops[n] = %q", got)
	}
	if w.Platforms["n1"] == nil || w.Platforms["hub"] != nil {
		t.Error("platforms should exist exactly for agent populations")
	}
	if w.Beacons["n0"] == nil || w.Beacons["hub"] != nil {
		t.Error("beacons should exist exactly for beaconing populations")
	}
	for _, name := range w.Pops["n"] {
		pos := w.Net.Node(name).Pos()
		if pos.X < 0 || pos.X > 100 || pos.Y < 0 || pos.Y > 100 {
			t.Errorf("%s placed off-field at %+v", name, pos)
		}
	}
}

func TestCallsWorkloadMovesTraffic(t *testing.T) {
	spec := twoNodeSpec(Calls{
		Client: "device", Server: "server", Service: "work",
		ReqBytes: 100, ReplyBytes: 400, Rounds: 5,
	}, 10*time.Minute)
	w, _ := spec.Run(1)
	u := w.Net.UsageOf("device")
	if u.BytesSent < 5*100 || u.BytesRecv < 5*400 {
		t.Errorf("device moved %d/%d bytes, want at least the 5 payload rounds",
			u.BytesSent, u.BytesRecv)
	}
}

func TestSpecRunDeterministic(t *testing.T) {
	render := func() string {
		spec := &Spec{
			Name:  "det",
			Field: Field{Width: 200, Height: 200},
			Populations: []Population{
				{Name: "a", Count: 20, Place: PlaceUniform{}, Link: netsim.AdHoc,
					Beacon: 5 * time.Second, Ads: nil, AdSelf: "p/",
					Mobility:     &netsim.RandomWaypoint{FieldW: 200, FieldH: 200, SpeedMin: 1, SpeedMax: 3, Pause: time.Second},
					MobilityTick: time.Second},
			},
			Duration:   2 * time.Minute,
			Probes:     []Probe{MeanNeighbors{Pop: "a"}, BeaconTraffic{}, NetTraffic{}},
			TableTitle: "det",
		}
		_, table := spec.Run(3)
		return table.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("same spec and seed diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestRunnerParallelMatchesSerial(t *testing.T) {
	run := func(parallel int) []string {
		multi := RunSeeds(1, 4, parallel, func(seed int64) *Result {
			spec := twoNodeSpec(Calls{
				Client: "device", Server: "server", Service: "work",
				ReqBytes: 50, ReplyBytes: 200, Rounds: 3,
			}, 5*time.Minute)
			w, _ := spec.Run(seed)
			u := w.Net.UsageOf("device")
			res := &Result{ID: "x", Title: "x"}
			res.Notes = append(res.Notes, fmt.Sprintf("%d/%d", u.BytesSent, u.BytesRecv))
			return res
		})
		out := make([]string, len(multi.Replicates))
		for i, rep := range multi.Replicates {
			out[i] = fmt.Sprintf("seed%d:%s", rep.Seed, rep.Result.Notes[0])
		}
		return out
	}
	serial, par := run(1), run(4)
	for i := range serial {
		if serial[i] != par[i] {
			t.Errorf("replicate %d: serial %q != parallel %q", i, serial[i], par[i])
		}
	}
}

func TestRunnerAggregateStable(t *testing.T) {
	fn := func(seed int64) *Result {
		tab := metrics.NewTable("t", "metric", "value")
		tab.AddRow("score", fmt.Sprintf("%d", 10*seed))
		return &Result{ID: "agg", Title: "agg", Tables: []*metrics.Table{tab}}
	}
	a, b := RunSeeds(1, 3, 3, fn), RunSeeds(1, 3, 3, fn)
	if a.Aggregate == nil || b.Aggregate == nil {
		t.Fatal("aggregate missing")
	}
	as, bs := a.Aggregate.Tables[0].String(), b.Aggregate.Tables[0].String()
	if as != bs {
		t.Fatalf("aggregate unstable:\n%s\nvs\n%s", as, bs)
	}
	// Seeds 1..3 score 10,20,30: mean 20, population stddev ~8.165.
	if got := a.Aggregate.Tables[0].Cell(0, 1); got != "20±8.165" {
		t.Errorf("aggregate cell = %q, want 20±8.165", got)
	}
}
