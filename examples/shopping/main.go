// Shopping example — the paper's "Shopping and Limiting Connectivity
// Costs": a shopping agent leaves the phone once, tours the vendors on the
// wired side, and returns with the best price; interactive browsing pays the
// GPRS link for every page.
//
//	go run ./examples/shopping
package main

import (
	"fmt"
	"log"
	"time"

	"logmob"
	"logmob/internal/app"
)

const vendors = 6

func main() {
	fmt.Println("shopping for 'camera' across", vendors, "vendors, phone on GPRS")
	fmt.Println()

	maCost, maBest := shopWithAgent()
	csCost, csBest := shopByBrowsing()

	fmt.Printf("\n%-18s %-12s %-12s\n", "strategy", "best price", "phone bill $")
	fmt.Printf("%-18s %-12s %-12.4f\n", "mobile agent", fmt.Sprintf("%d.%02d", maBest/100, maBest%100), maCost)
	fmt.Printf("%-18s %-12s %-12.4f\n", "browsing (CS)", fmt.Sprintf("%d.%02d", csBest/100, csBest%100), csCost)
	fmt.Printf("\nthe agent's bill is one round trip regardless of vendor count;\nbrowsing pays per page, per vendor\n")
}

// vendorPrices is the shared price vector.
func vendorPrices() ([]string, map[string]map[string]float64) {
	names := make([]string, vendors)
	prices := make(map[string]map[string]float64, vendors)
	for i := range names {
		names[i] = fmt.Sprintf("shop-%d", i)
		prices[names[i]] = map[string]float64{"camera": 199.99 - float64(i*7)}
	}
	return names, prices
}

func buildWorld() (*logmob.Sim, *logmob.Network, *logmob.SimNetwork, *logmob.Identity, *logmob.TrustStore) {
	sim := logmob.NewSim(5)
	net := logmob.NewNetwork(sim)
	sn := logmob.NewSimNetwork(net)
	id, err := logmob.NewIdentity("user")
	if err != nil {
		log.Fatal(err)
	}
	trust := logmob.NewTrustStore()
	trust.TrustIdentity(id)
	return sim, net, sn, id, trust
}

func addHost(net *logmob.Network, sn *logmob.SimNetwork, sim *logmob.Sim,
	trust *logmob.TrustStore, name string, class logmob.LinkClass) *logmob.Host {
	net.AddNode(name, logmob.Position{}, class)
	ep, err := sn.Endpoint(name)
	if err != nil {
		log.Fatal(err)
	}
	h, err := logmob.NewHost(logmob.HostConfig{
		Name: name, Endpoint: ep, Scheduler: sim, Trust: trust,
	})
	if err != nil {
		log.Fatal(err)
	}
	return h
}

func shopWithAgent() (cost float64, bestCents int64) {
	sim, net, sn, id, trust := buildWorld()
	phone := addHost(net, sn, sim, trust, "phone", logmob.GPRS)
	names, prices := vendorPrices()
	// One capability table — the standard agent set plus the vendors' price
	// query — shared by every platform the shopper can land on.
	caps := logmob.NewAgentCaps(app.VendorCaps()...)
	for _, name := range names {
		vh := addHost(net, sn, sim, trust, name, logmob.LAN)
		app.SetupVendor(vh, prices[name], 2048)
		logmob.NewAgentPlatform(vh, logmob.AgentEnv{Seed: 1, Caps: caps})
	}

	var record logmob.AgentRecord
	plat := logmob.NewAgentPlatform(phone, logmob.AgentEnv{
		Seed: 2, Caps: caps,
		OnDone: func(r logmob.AgentRecord) { record = r },
	})
	if _, err := plat.SpawnUnit(app.BuildShopper(id, "phone", "camera", names), "main"); err != nil {
		log.Fatal(err)
	}
	sim.RunFor(20 * time.Minute)

	n := len(record.Stack)
	if n < 2 {
		log.Fatalf("shopper never returned: %+v", record)
	}
	bestIdx, cents := record.Stack[n-2], record.Stack[n-1]
	fmt.Printf("agent toured %d vendors, best: %s at %d.%02d\n",
		vendors, names[bestIdx], cents/100, cents%100)
	return net.UsageOf("phone").Cost, cents
}

func shopByBrowsing() (cost float64, bestCents int64) {
	sim, net, sn, _, trust := buildWorld()
	phone := addHost(net, sn, sim, trust, "phone", logmob.GPRS)
	names, prices := vendorPrices()
	for _, name := range names {
		vh := addHost(net, sn, sim, trust, name, logmob.LAN)
		app.SetupVendor(vh, prices[name], 2048)
	}
	var result app.BrowseResult
	app.BrowseCS(phone, names, "camera", 3, func(r app.BrowseResult) { result = r })
	sim.RunFor(time.Hour)
	fmt.Printf("browsed %d vendors x 3 pages each, best: %s at %d.%02d\n",
		vendors, names[result.BestVendor], result.BestCents/100, result.BestCents%100)
	return net.UsageOf("phone").Cost, result.BestCents
}
