package sim

import (
	"fmt"
	"time"

	"logmob/internal/app"
	"logmob/internal/core"
	"logmob/internal/lmu"
	"logmob/internal/metrics"
	"logmob/internal/netsim"
	"logmob/internal/scenario"
	"logmob/internal/vm"
)

// T5 compares a shopping agent with interactive catalogue browsing on a
// GPRS device, sweeping the number of vendors. The device pays per byte, so
// the agent — which leaves once, shops on the wired side, and returns once —
// caps the device's airtime and bill while browsing grows linearly with
// vendors.
func T5() Experiment {
	return Experiment{
		ID:    "T5",
		Title: "Shopping: agent vs interactive browsing on a costed link",
		Motivation: `"Considering that wireless connections are expensive, the ` +
			`cost of shopping from a mobile device can be quite high. Mobile ` +
			`agents could be a solution to this problem, encapsulating the ` +
			`description of the product the user wishes to buy, finding the ` +
			`best price, and performing the actual transaction for the user."`,
		Run:    runT5,
		Params: map[string]float64{"vendors": 16},
		RunWith: func(seed int64, params map[string]float64) *Result {
			v := 16
			if pv, ok := params["vendors"]; ok {
				v = int(pv)
			}
			if v < 1 {
				panic("T5: vendors must be >= 1")
			}
			return runT5Vendors(seed, []int{v})
		},
	}
}

const (
	t5PageSize       = 2048
	t5PagesPerVendor = 3
)

// t5Caps grants a T5 population's platforms the vendors' price query.
func t5Caps(*scenario.World) []vm.HostFunc { return app.VendorCaps() }

// t5Vendors declares the vendor population: LAN marketplace hosts with a
// per-vendor catalogue, optionally agent-capable for the shopper to visit.
func t5Vendors(vendors int, prices []float64, agents bool) scenario.Population {
	return scenario.Population{
		Name:   "shop",
		Count:  vendors,
		NameOf: func(i int) string { return fmt.Sprintf("shop-%02d", i) },
		Link:   netsim.LAN,
		Agents: agents, ExtraCaps: t5Caps,
		Setup: func(w *scenario.World, i int, h *core.Host) {
			app.SetupVendor(h, map[string]float64{"widget": prices[i]}, t5PageSize)
		},
	}
}

func runT5(seed int64) *Result {
	return runT5Vendors(seed, []int{2, 4, 8, 16})
}

func runT5Vendors(seed int64, sweep []int) *Result {
	res := &Result{ID: "T5", Title: "Shopping agent vs browsing"}
	table := metrics.NewTable(fmt.Sprintf(
		"Table T5: GPRS device, %d catalogue pages x %dB per vendor browsed",
		t5PagesPerVendor, t5PageSize),
		"vendors", "strategy", "device B", "cost $", "airtime s", "best cents")
	chart := metrics.NewChart("Figure T5: device monetary cost vs vendors", "vendors", "$")

	for _, vendors := range sweep {
		// Same price vector for both strategies.
		prices := make([]float64, vendors)
		names := make([]string, vendors)
		for i := range prices {
			prices[i] = 5 + float64((i*7)%13)
			names[i] = fmt.Sprintf("shop-%02d", i)
		}

		// --- MA: shopping agent.
		{
			spec := &scenario.Spec{
				Name: "Shopping agent",
				Populations: []scenario.Population{
					{Name: "home", Link: netsim.GPRS,
						Agents: true, ExtraCaps: t5Caps},
					t5Vendors(vendors, prices, true),
				},
				Duration: 30 * time.Minute,
				Workloads: []scenario.Workload{scenario.SpawnAgent{
					Host: "home", Entry: "main",
					Unit: func(w *scenario.World) *lmu.Unit {
						return app.BuildShopper(w.ID, "home", "widget", names)
					},
				}},
			}
			w, _ := spec.Run(seed)
			u := w.Net.UsageOf("home")
			best := int64(-1)
			if final, ok := w.LastRecord("shopper"); ok {
				if n := len(final.Stack); n >= 2 {
					best = final.Stack[n-1]
				}
			}
			table.AddRow(vendors, "MA agent", u.BytesSent+u.BytesRecv,
				fmt.Sprintf("%.4f", u.Cost), fmt.Sprintf("%.1f", u.Airtime.Seconds()), best)
			chart.Add("MA", float64(vendors), u.Cost)
		}

		// --- CS: interactive browsing.
		{
			var result app.BrowseResult
			spec := &scenario.Spec{
				Name: "Interactive browsing",
				Populations: []scenario.Population{
					{Name: "home", Link: netsim.GPRS},
					t5Vendors(vendors, prices, false),
				},
				Duration: 2 * time.Hour,
				Workloads: []scenario.Workload{scenario.Func(func(w *scenario.World) {
					app.BrowseCS(w.Hosts["home"], names, "widget", t5PagesPerVendor,
						func(r app.BrowseResult) { result = r })
				})},
			}
			w, _ := spec.Run(seed)
			u := w.Net.UsageOf("home")
			table.AddRow(vendors, "CS browse", u.BytesSent+u.BytesRecv,
				fmt.Sprintf("%.4f", u.Cost), fmt.Sprintf("%.1f", u.Airtime.Seconds()), result.BestCents)
			chart.Add("CS", float64(vendors), u.Cost)
		}
	}
	res.Tables = append(res.Tables, table)
	res.Charts = append(res.Charts, chart)
	res.Notes = append(res.Notes,
		"expected shape: CS cost grows linearly with vendors; MA cost is flat (one round trip) once past the agent-code overhead",
		"both strategies must agree on the best price")
	return res
}
