package scenario

import (
	"math"
	"runtime"
	"testing"
	"time"

	"logmob/internal/discovery"
	"logmob/internal/netsim"
)

// metroSpec is a T15-shaped crowd at residents residents: kiosks on a 5x5
// lattice and a roaming crowd, at T15's density, radio range, beacon
// interval, ads, agent platforms and mobility.
func metroSpec(residents int) *Spec {
	const density = 100000 / (10000.0 * 10000.0) // T15: 100k residents on 10 km square
	field := math.Sqrt(float64(residents) / density)
	kiosks := make(PlacePoints, 25)
	for k := range kiosks {
		kiosks[k] = netsim.Position{X: field / 5 * (float64(k%5) + 0.5), Y: field / 5 * (float64(k/5) + 0.5)}
	}
	device := Population{
		Link: netsim.AdHoc, Range: 40,
		AllowUnsigned: true, Agents: true, MaxHops: 4096,
		ExtraCaps: GreedyGeoCaps,
		Beacon:    30 * time.Second,
	}
	pts, ppl := device, device
	pts.Name, pts.Count, pts.Place = "kiosk", len(kiosks), kiosks
	pts.Ads, pts.AdSelf = []discovery.Ad{{Service: "metro/info"}}, "metro/"
	ppl.Name, ppl.Count, ppl.Place = "r", residents, PlaceUniform{}
	ppl.AgentSeedOffset = int64(len(kiosks))
	ppl.Ads = []discovery.Ad{{Service: "presence"}}
	ppl.Mobility = &netsim.RandomWaypoint{FieldW: field, FieldH: field, SpeedMin: 10, SpeedMax: 30, Pause: 240 * time.Second}
	ppl.MobilityTick = time.Second
	return &Spec{
		Name:        "metro footprint",
		Field:       Field{Width: field, Height: field},
		Populations: []Population{pts, ppl},
	}
}

// TestCompiledResidentFootprint fences what a compiled resident keeps live:
// the heap a T15-shaped world of 2,000 residents holds after Compile,
// divided by its 2,025 hosts. With the kernel's context service, registry
// and maps and the beacon's own-ad map built eagerly it was 3,091 B; made on
// first use, 1,988 B; with the kernel and agent counters that nothing read
// deleted, 1,796 B (linux/amd64, the same with -race and -cover). The
// ceiling is 1,796 B plus 10 %, so one eagerly built service that most
// residents never use fails it.
func TestCompiledResidentFootprint(t *testing.T) {
	const residents, ceiling = 2000, 1976
	spec := metroSpec(residents)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := spec.Compile(1)
	runtime.GC()
	runtime.ReadMemStats(&after)
	hosts := len(w.Hosts)
	perHost := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(hosts)
	runtime.KeepAlive(w)
	t.Logf("%d hosts, %d B live per host", hosts, perHost)
	if perHost > ceiling {
		t.Errorf("a compiled resident holds %d B live, above the %d B ceiling", perHost, ceiling)
	}
}

// TestRunningResidentFootprint is the running counterpart: the heap the same
// world holds after 120 s of virtual time, four beacon rounds with the crowd
// roaming, divided by its hosts. What a resident then keeps beyond its
// compiled footprint is mostly its beacon's neighbor table, a record per
// sender heard inside the ads' TTL. With 32-byte records it was 3,256 B, with
// 24-byte ones 3,082 B, and with the kernel and agent counters that nothing
// read deleted, 2,890 B (linux/amd64). The ceiling is 2,890 B plus 10 %.
func TestRunningResidentFootprint(t *testing.T) {
	const residents, ceiling = 2000, 3179
	spec := metroSpec(residents)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := spec.Compile(1)
	w.Sim.RunFor(120 * time.Second)
	runtime.GC()
	runtime.ReadMemStats(&after)
	hosts := len(w.Hosts)
	perHost := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(hosts)
	runtime.KeepAlive(w)
	t.Logf("%d hosts, %d B live per host after 120 s", hosts, perHost)
	if perHost > ceiling {
		t.Errorf("a running resident holds %d B live, above the %d B ceiling", perHost, ceiling)
	}
}
