package sim

import (
	"fmt"
	"time"

	"logmob/internal/app"
	"logmob/internal/baseline"
	"logmob/internal/core"
	"logmob/internal/metrics"
	"logmob/internal/netsim"
	"logmob/internal/registry"
	"logmob/internal/scenario"
)

// T2 plays a Zipf-skewed stream of audio formats on a storage-limited
// device under three deployment strategies:
//
//   - preload-all: every codec installed up front (the paper's infeasible
//     baseline — footprint grows with the catalogue),
//   - cod-cache: codecs fetched on demand and evicted under quota (the
//     paper's proposal),
//   - cs-remote: no local code; every play decoded remotely over the link.
func T2() Experiment {
	return Experiment{
		ID:    "T2",
		Title: "COD vs preload vs remote decode (limited resources)",
		Motivation: `"as these devices only have limited resources, it is very ` +
			`difficult for manufacturers to preload on to the device the code ` +
			`needed for every possible use ... The device can download on demand ` +
			`the code that is needed ... When the code is no longer needed, the ` +
			`device can choose to delete it, conserving resources."`,
		Run: runT2,
	}
}

const (
	t2Formats   = 30
	t2TableSize = 8 * 1024
	t2Plays     = 200
	t2Quota     = 6 // codecs' worth of storage
	t2Samples   = 64
)

func runT2(seed int64) *Result {
	res := &Result{ID: "T2", Title: "COD vs preload vs remote decode"}
	table := metrics.NewTable("Table T2: codec playback strategies, "+
		fmt.Sprintf("%d formats x %dKB, %d Zipf(1.0) plays, quota %d codecs",
			t2Formats, t2TableSize/1024, t2Plays, t2Quota),
		"strategy", "storage B", "link B", "hit %", "evictions", "mean play ms")

	// --- preload-all: unlimited storage assumed; measure required footprint.
	{
		w := scenario.NewWorld(seed)
		reg := registry.New(0)
		units := app.CodecCatalogue(w.ID, t2Formats, t2TableSize)
		footprint := baseline.Preload(reg, units)
		table.AddRow("preload-all", footprint, 0, "100.0", 0, "0")
		res.Notes = append(res.Notes, fmt.Sprintf(
			"preload-all needs %d bytes of device storage; the quota devices have is %d",
			footprint, int64(t2Quota)*int64(units[0].Size())))
	}

	// --- cod-cache: fetch on demand under quota.
	{
		w := scenario.NewWorld(seed)
		units := app.CodecCatalogue(w.ID, t2Formats, t2TableSize)
		quota := int64(t2Quota) * int64(units[0].Size())
		repo := w.AddHost("repo", netsim.Position{}, netsim.LAN, nil)
		device := w.AddHost("device", netsim.Position{}, netsim.WLAN, func(c *core.Config) {
			c.Registry = registry.New(quota, registry.WithClock(w.Sim.Now))
		})
		for _, u := range units {
			if err := repo.Publish(u); err != nil {
				panic(err)
			}
		}
		player := &app.Player{Host: device, Repo: "repo", Samples: t2Samples}
		zipf := app.NewZipf(t2Formats, 1.0, seed)
		var playLatency metrics.Series
		var play func(i int)
		play = func(i int) {
			if i >= t2Plays {
				return
			}
			start := w.Sim.Now()
			player.Play(fmt.Sprintf("fmt-%02d", zipf.Next()), func(_ int64, _ bool, err error) {
				if err == nil {
					playLatency.Observe(float64((w.Sim.Now() - start).Milliseconds()))
				}
				play(i + 1)
			})
		}
		play(0)
		w.Sim.RunFor(4 * time.Hour)
		u := w.Net.UsageOf("device")
		hitPct := 100 * float64(player.Hits) / float64(player.Plays)
		table.AddRow("cod-cache", device.Registry().Used(), u.BytesSent+u.BytesRecv,
			fmt.Sprintf("%.1f", hitPct), device.Registry().Evictions(),
			fmt.Sprintf("%.1f", playLatency.Mean()))
	}

	// --- cs-remote: every play is a remote decode round trip.
	{
		w := scenario.NewWorld(seed)
		server := w.AddHost("repo", netsim.Position{}, netsim.LAN, nil)
		device := w.AddHost("device", netsim.Position{}, netsim.WLAN, nil)
		// The remote decoder returns raw PCM, which dwarfs the compressed
		// codec component: 64KB per play (a short clip).
		decoded := make([]byte, 64<<10)
		server.RegisterService("decode", func(string, [][]byte) ([][]byte, error) {
			return [][]byte{decoded}, nil
		})
		var playLatency metrics.Series
		zipf := app.NewZipf(t2Formats, 1.0, seed)
		var play func(i int)
		play = func(i int) {
			if i >= t2Plays {
				return
			}
			start := w.Sim.Now()
			_ = zipf.Next() // format choice does not change remote traffic
			device.Call("repo", "decode", [][]byte{[]byte("fmt")}, func([][]byte, error) {
				playLatency.Observe(float64((w.Sim.Now() - start).Milliseconds()))
				play(i + 1)
			})
		}
		play(0)
		w.Sim.RunFor(4 * time.Hour)
		u := w.Net.UsageOf("device")
		table.AddRow("cs-remote", 0, u.BytesSent+u.BytesRecv, "-", 0,
			fmt.Sprintf("%.1f", playLatency.Mean()))
	}

	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		"expected shape: cod-cache stores a fraction of preload-all's footprint and moves far fewer bytes than cs-remote once the cache warms")
	return res
}
