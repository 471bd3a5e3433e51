package sim

import (
	"fmt"
	"time"

	"logmob/internal/discovery"
	"logmob/internal/metrics"
	"logmob/internal/netsim"
	"logmob/internal/transport"
)

// T7 measures service discovery in a mobile ad-hoc field under node churn,
// comparing the Jini-style centralised lookup service with decentralised
// beaconing. The centralised index must be radio-reachable at query time;
// beacon caches are local, so they keep answering through churn and
// partition — the paper's criticism of Jini made quantitative.
func T7() Experiment {
	return Experiment{
		ID:    "T7",
		Title: "Discovery under churn: centralised lookup vs beaconing",
		Motivation: `"Jini provides a centralised framework, which requires ` +
			`lookup services ... to operate. [It] is not, on the other hand, ` +
			`particularly suitable ... particularly in ad-hoc environments ` +
			`which lack a centralised lookup service."`,
		Run: runT7,
	}
}

const (
	t7Nodes     = 14
	t7Providers = 4
	t7Field     = 320.0
	t7Range     = 90.0
	t7Queries   = 40
	t7AdTTL     = 15 * time.Second
)

func runT7(seed int64) *Result {
	res := &Result{ID: "T7", Title: "Discovery under churn"}
	table := metrics.NewTable(fmt.Sprintf(
		"Table T7: %d roaming nodes (%d providers), %gm field, %d queries per config",
		t7Nodes, t7Providers, t7Field, t7Queries),
		"churn %", "central ok %", "beacon ok %")
	chart := metrics.NewChart("Figure T7: discovery success vs churn", "churn %", "success ratio")

	for _, churn := range []float64{0, 0.2, 0.4, 0.6} {
		centralOK, beaconOK := runT7Config(seed, churn)
		table.AddRow(int(churn*100),
			fmt.Sprintf("%.1f", 100*centralOK), fmt.Sprintf("%.1f", 100*beaconOK))
		chart.Add("central", churn*100, centralOK)
		chart.Add("beacon", churn*100, beaconOK)
	}
	res.Tables = append(res.Tables, table)
	res.Charts = append(res.Charts, chart)
	res.Notes = append(res.Notes,
		"expected shape: beaconing degrades gracefully with churn; centralised lookup is capped by radio reachability of the index node and collapses as churn grows")
	return res
}

// runT7Config builds one churning field and measures both discovery styles
// against the same churn realisation.
func runT7Config(seed int64, churn float64) (centralOK, beaconOK float64) {
	sim := netsim.NewSim(seed + int64(churn*1000))
	net := netsim.NewNetwork(sim)
	sn := transport.NewSimNetwork(net)

	class := netsim.AdHoc
	class.Loss = 0
	class.Range = t7Range

	names := make([]string, 0, t7Nodes+1)
	endpoints := make(map[string]transport.Endpoint)
	addNode := func(name string, pos netsim.Position) *transport.Mux {
		net.AddNode(name, pos, class)
		ep, err := sn.Endpoint(name)
		if err != nil {
			panic(err)
		}
		endpoints[name] = ep
		names = append(names, name)
		return transport.NewMux(ep)
	}

	// The lookup index sits mid-field; everyone else roams.
	muxLookup := addNode("lookup", netsim.Position{X: t7Field / 2, Y: t7Field / 2})
	discovery.NewLookupServer(muxLookup.Channel(transport.ChanLookup), sim)

	beacons := make(map[string]*discovery.Beacon)
	clients := make(map[string]*discovery.LookupClient)
	for i := 0; i < t7Nodes; i++ {
		name := fmt.Sprintf("n%d", i)
		pos := netsim.Position{
			X: sim.Rand().Float64() * t7Field,
			Y: sim.Rand().Float64() * t7Field,
		}
		mux := addNode(name, pos)
		b := discovery.NewBeacon(mux.Channel(transport.ChanBeacon), sim, 5*time.Second)
		c := discovery.NewLookupClient(mux.Channel(transport.ChanLookup), sim, "lookup")
		c.Timeout = 3 * time.Second
		beacons[name] = b
		clients[name] = c
		if i < t7Providers {
			ad := discovery.Ad{Service: "print/a4", TTL: t7AdTTL}
			b.Advertise(ad)
			_ = c.Advertise(ad)
		}
		b.Start()
	}

	net.StartMobility(&netsim.RandomWaypoint{
		FieldW: t7Field, FieldH: t7Field, SpeedMin: 1, SpeedMax: 4, Pause: 2 * time.Second,
	}, time.Second, names[1:]...) // the lookup node stays put

	// Churn: every 15s each non-lookup node flips a coin and, if unlucky,
	// goes down for 10s.
	var churnTick transport.Timer
	churnTick = sim.NewTimer(func() {
		for _, name := range names[1:] {
			if sim.Rand().Float64() < churn {
				n := name
				net.SetUp(n, false)
				sim.Schedule(10*time.Second, func() { net.SetUp(n, true) })
			}
		}
		churnTick.Reset(15 * time.Second)
	})
	churnTick.Reset(15 * time.Second)

	// Warm up caches and leases.
	sim.RunFor(20 * time.Second)

	// Queries from random up nodes, one every 5s, both styles each time.
	var centralHits, beaconHits, asked int
	for q := 0; q < t7Queries; q++ {
		name := fmt.Sprintf("n%d", sim.Rand().Intn(t7Nodes))
		if node := net.Node(name); node == nil || !node.Up {
			sim.RunFor(5 * time.Second)
			continue
		}
		asked++
		query := discovery.Query{Service: "print/a4"}
		clients[name].Find(query, func(ads []discovery.Ad) {
			if len(ads) > 0 {
				centralHits++
			}
		})
		beacons[name].Find(query, func(ads []discovery.Ad) {
			if len(ads) > 0 {
				beaconHits++
			}
		})
		sim.RunFor(5 * time.Second)
	}
	sim.RunFor(10 * time.Second) // drain outstanding finds
	if asked == 0 {
		return 0, 0
	}
	return float64(centralHits) / float64(asked), float64(beaconHits) / float64(asked)
}
