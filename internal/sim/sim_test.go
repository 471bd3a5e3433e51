package sim

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestAllExperimentsRegistered(t *testing.T) {
	all := All()
	if len(all) != 19 {
		t.Fatalf("All() has %d experiments, want 19", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Motivation == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("T3"); !ok {
		t.Error("ByID(T3) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
}

// ratio parses a numeric cell.
func cellF(t *testing.T, tab interface{ Cell(int, int) string }, row, col int) float64 {
	t.Helper()
	s := tab.Cell(row, col)
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, s, err)
	}
	return v
}

func TestT1ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	res := runT1(1)
	if len(res.Tables) != 1 || len(res.Charts) != 1 {
		t.Fatalf("T1 output incomplete")
	}
	tab := res.Tables[0]
	// Rows: for each N in {1,2,5,10,20,50} rows CS,REV,COD,MA.
	if tab.Rows() != 24 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	// At N=1 (rows 0-3) CS must be cheapest measured; at N=50 (rows 20-23)
	// CS must be the most expensive measured.
	readMeasured := func(base int) map[string]float64 {
		out := map[string]float64{}
		for i := 0; i < 4; i++ {
			out[tab.Cell(base+i, 1)] = cellF(t, tab, base+i, 3)
		}
		return out
	}
	atN1 := readMeasured(0)
	for _, p := range []string{"REV", "COD", "MA"} {
		if atN1["CS"] >= atN1[p] {
			t.Errorf("at N=1, CS (%v B) should beat %s (%v B)", atN1["CS"], p, atN1[p])
		}
	}
	atN50 := readMeasured(20)
	for _, p := range []string{"REV", "COD", "MA"} {
		if atN50["CS"] <= atN50[p] {
			t.Errorf("at N=50, %s (%v B) should beat CS (%v B)", p, atN50[p], atN50["CS"])
		}
	}
}

func TestT2ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	res := runT2(1)
	tab := res.Tables[0]
	if tab.Rows() != 3 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	preloadStorage := cellF(t, tab, 0, 1)
	codStorage := cellF(t, tab, 1, 1)
	codLink := cellF(t, tab, 1, 2)
	csLink := cellF(t, tab, 2, 2)
	if codStorage >= preloadStorage/2 {
		t.Errorf("cod storage %v should be far below preload %v", codStorage, preloadStorage)
	}
	if codLink >= csLink {
		t.Errorf("cod link bytes %v should beat cs-remote %v over 200 plays", codLink, csLink)
	}
	// Zipf(1.0) over 30 formats gives the top 6 about 61% of the mass;
	// LRU churn loses a little of that.
	hit := cellF(t, tab, 1, 3)
	if hit < 40 {
		t.Errorf("cod hit ratio %v%% too low for Zipf(1.0) with quota 6/30", hit)
	}
}

func TestT5ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	res := runT5(1)
	tab := res.Tables[0]
	if tab.Rows() != 8 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	// Rows alternate MA, CS per vendor count {2,4,8,16}. CS cost must grow
	// with vendors; MA cost must stay ~flat; at 16 vendors MA must win.
	cs4 := cellF(t, tab, 3, 3)
	cs16 := cellF(t, tab, 7, 3)
	if cs16 <= cs4 {
		t.Errorf("CS cost should grow with vendors: %v -> %v", cs4, cs16)
	}
	ma2 := cellF(t, tab, 0, 3)
	ma16 := cellF(t, tab, 6, 3)
	if ma16 > ma2*1.5 {
		t.Errorf("MA cost should stay ~flat: %v -> %v", ma2, ma16)
	}
	if ma16 >= cs16 {
		t.Errorf("at 16 vendors MA (%v) should beat CS (%v)", ma16, cs16)
	}
	// Both strategies agree on the best price.
	for row := 0; row < 8; row += 2 {
		if tab.Cell(row, 5) != tab.Cell(row+1, 5) {
			t.Errorf("row %d: MA best %s != CS best %s", row, tab.Cell(row, 5), tab.Cell(row+1, 5))
		}
	}
}

func TestT6ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	res := runT6(1)
	tab := res.Tables[0]
	if tab.Rows() != 12 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	// WLAN rows 0-5, factor 0.5..20: speedup must increase with factor and
	// exceed 1 from factor 2 up.
	wlanHalf := cellF(t, tab, 0, 3)
	wlan20 := cellF(t, tab, 5, 3)
	if wlanHalf >= 1 {
		t.Errorf("offload to a slower server should lose: speedup %v", wlanHalf)
	}
	if wlan20 <= 2 {
		t.Errorf("offload to 20x server over wlan should win big: speedup %v", wlan20)
	}
	// GPRS bottleneck: speedup at factor 20 lower than WLAN's.
	gprs20 := cellF(t, tab, 11, 3)
	if gprs20 >= wlan20 {
		t.Errorf("gprs speedup %v should trail wlan %v (transfer-bound)", gprs20, wlan20)
	}
}

func TestT7ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	res := runT7(1)
	tab := res.Tables[0]
	if tab.Rows() != 4 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	// Beaconing must beat centralised lookup at every churn level in this
	// ad-hoc field, and centralised must degrade as churn rises.
	for row := 0; row < 4; row++ {
		central := cellF(t, tab, row, 1)
		beacon := cellF(t, tab, row, 2)
		if beacon < central {
			t.Errorf("row %d: beacon %v%% below central %v%%", row, beacon, central)
		}
	}
	// In an ad-hoc field the central index is reachable only near the field
	// centre, so central success sits near its floor at every churn level,
	// while beaconing stays useful.
	if b0 := cellF(t, tab, 0, 2); b0 < 50 {
		t.Errorf("beacon success at zero churn = %v%%, want a working fabric", b0)
	}
	if c60 := cellF(t, tab, 3, 1); c60 > 50 {
		t.Errorf("central success at 60%% churn = %v%%, should be crippled without a reachable index", c60)
	}
}

func TestT8Runs(t *testing.T) {
	res := runT8(1)
	if res.Tables[0].Rows() != 4 {
		t.Fatalf("rows = %d", res.Tables[0].Rows())
	}
}

func TestT9ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	res := runT9(1)
	tab := res.Tables[0]
	if tab.Rows() != 3 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	for row := 0; row < 3; row++ {
		first := cellF(t, tab, row, 1)
		ret := cellF(t, tab, row, 2)
		if ret >= first {
			t.Errorf("%s: return visit %vms should beat first visit %vms",
				tab.Cell(row, 0), ret, first)
		}
	}
	// GPRS first visit is the slowest of the three.
	if gprs, wlan := cellF(t, tab, 2, 1), cellF(t, tab, 1, 1); gprs <= wlan {
		t.Errorf("gprs first visit %v should exceed wlan %v", gprs, wlan)
	}
}

func TestT10Runs(t *testing.T) {
	res := runT10(1)
	if res.Tables[0].Rows() < 8 {
		t.Fatalf("rows = %d", res.Tables[0].Rows())
	}
}

func TestA1ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	res := runA1(1)
	tab := res.Tables[0]
	if tab.Rows() != 3 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	for row := 0; row < 3; row++ {
		if hit := cellF(t, tab, row, 1); hit < 5 || hit > 100 {
			t.Errorf("%s hit ratio %v implausible", tab.Cell(row, 0), hit)
		}
	}
	// Recency/frequency policies must beat size-greedy, which degenerates
	// pathologically on an equal-size catalogue (it keeps evicting its
	// deterministic first pick — the hottest format).
	lru, lfu, sg := cellF(t, tab, 0, 1), cellF(t, tab, 1, 1), cellF(t, tab, 2, 1)
	if lru <= sg || lfu <= sg {
		t.Errorf("lru %v / lfu %v should beat size-greedy %v on a Zipf stream", lru, lfu, sg)
	}
}

func TestA2ShapeHolds(t *testing.T) {
	res := runA2(1)
	tab := res.Tables[0]
	if tab.Rows() != 3 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	oracleMean := cellF(t, tab, 0, 1)
	costMean := cellF(t, tab, 2, 1)
	rulesMean := cellF(t, tab, 1, 1)
	if costMean < oracleMean {
		t.Errorf("cost decider %v beats the oracle %v: oracle broken", costMean, oracleMean)
	}
	if costMean > rulesMean {
		t.Errorf("cost decider %v should beat rules %v on traffic", costMean, rulesMean)
	}
	if opt := cellF(t, tab, 2, 3); opt < 70 {
		t.Errorf("cost decider optimal%% = %v, want near-oracle", opt)
	}
}

func TestT11ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	res := T11().Run(1)
	tab := res.Tables[0]
	if tab.Rows() != 11 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	// The crowd must be a working ad-hoc fabric: a few radio neighbors per
	// attendee, beacon gossip flowing, and stage ads covering at least the
	// attendees that recently passed a stage.
	if nbrs := cellF(t, tab, 0, 1); nbrs < 2 || nbrs > 30 {
		t.Errorf("mean radio neighbors = %v, implausible crowd density", nbrs)
	}
	if cov := cellF(t, tab, 5, 1); cov <= 0.5 {
		t.Errorf("festival/info coverage = %v%%, beacons not propagating", cov)
	}
	// Store-carry-forward couriers must actually cross their partitions:
	// most of the spawned couriers deliver within the deadline, in more
	// than one hop each. The denominator is couriers spawned, which can
	// fall short of t11Couriers on seeds where a stage has no attendee in
	// the source band.
	var done, total int
	if _, err := fmt.Sscanf(tab.Cell(7, 1), "%d/%d", &done, &total); err != nil {
		t.Fatalf("couriers delivered cell %q: %v", tab.Cell(7, 1), err)
	}
	if total == 0 || total > t11Couriers || done*2 < total {
		t.Errorf("couriers delivered %d/%d, want a majority of spawned", done, total)
	}
	var hops, fails int
	if _, err := fmt.Sscanf(tab.Cell(6, 1), "%d / %d", &hops, &fails); err != nil {
		t.Fatalf("courier hops cell %q: %v", tab.Cell(6, 1), err)
	}
	if hops < 2*done {
		t.Errorf("courier hops = %d for %d deliveries; couriers did not roam", hops, done)
	}
}

// TestT11Deterministic runs the 2000-node scenario twice on one seed and
// requires byte-identical rendered output: the grid index, neighbor caches
// and shared-payload broadcast must not perturb the RNG or delivery order.
func TestT11Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	render := func() string {
		var sb strings.Builder
		T11().Run(3).Render(&sb)
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("same seed diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

func TestResultRender(t *testing.T) {
	res := runA2(2)
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "=== A2") || !strings.Contains(out, "oracle") {
		t.Errorf("render:\n%s", out)
	}
}

func TestA3ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	res := runA3(1)
	tab := res.Tables[0]
	if tab.Rows() != 4 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	// Time-to-update is non-decreasing in the beacon interval and bounded
	// below by the updater's check cadence; beacon bytes shrink as the
	// interval grows.
	prevMean := 0.0
	prevBytes := 1e18
	for row := 0; row < 4; row++ {
		mean := cellF(t, tab, row, 1)
		bytes := cellF(t, tab, row, 3)
		if mean < float64(a3CheckSec)-1 {
			t.Errorf("row %d: mean %vs below the check cadence floor", row, mean)
		}
		if mean+0.01 < prevMean {
			t.Errorf("row %d: mean update time decreased: %v -> %v", row, prevMean, mean)
		}
		if bytes >= prevBytes {
			t.Errorf("row %d: beacon bytes did not shrink: %v -> %v", row, prevBytes, bytes)
		}
		prevMean, prevBytes = mean, bytes
	}
}
