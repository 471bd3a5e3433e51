// Cinema example — the paper's "Location-Based Reconfigurability and
// Services": a user walks into a cinema; a geofence flips the device's
// location context; the middleware fetches the venue's ticket UI on demand
// and runs it. Walking back in later is a cache hit.
//
//	go run ./examples/cinema
package main

import (
	"fmt"
	"log"
	"time"

	"logmob"
	"logmob/internal/app"
	"logmob/internal/netsim"
)

func main() {
	sim := logmob.NewSim(9)
	net := logmob.NewNetwork(sim)
	sn := logmob.NewSimNetwork(net)

	venue, err := logmob.NewIdentity("odeon")
	if err != nil {
		log.Fatal(err)
	}
	trust := logmob.NewTrustStore()
	trust.TrustIdentity(venue)

	mk := func(name string, pos logmob.Position) *logmob.Host {
		class := logmob.WLAN
		class.Range = 80
		net.AddNode(name, pos, class)
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
	cinemaPos := logmob.Position{X: 100, Y: 100}
	cinema := mk("cinema", cinemaPos)
	user := mk("phone", logmob.Position{X: 350, Y: 100})

	ui := app.BuildTicketUI(venue, 8, 12<<10)
	if err := cinema.Publish(ui); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cinema publishes %s@%s (%d bytes, signed by %q)\n\n",
		ui.Manifest.Name, ui.Manifest.Version, ui.Size(), ui.Sig.Signer)

	stop := app.StartGeofencing(net, "phone", user.Context(),
		[]app.Geofence{{Name: "cinema-lobby", Center: cinemaPos, Radius: 60}})
	defer stop()

	visit := 0
	app.AutoService(user, "cinema-lobby", "cinema", app.TicketUIName, "render",
		func(elapsed time.Duration, hit bool, err error) {
			if err != nil {
				log.Fatal(err)
			}
			visit++
			how := "fetched over the air"
			if hit {
				how = "already cached"
			}
			fmt.Printf("t=%-6v visit %d: ticket UI up in %v (%s)\n",
				sim.Now().Round(time.Second), visit, elapsed.Round(time.Millisecond), how)
		})

	// Walk in, leave, come back.
	net.StartMobility(&netsim.Waypath{
		Points: []logmob.Position{
			{X: 110, Y: 100}, // enter
			{X: 350, Y: 100}, // leave
			{X: 110, Y: 100}, // re-enter
		},
		Speed: 12,
	}, time.Second, "phone")

	sim.RunFor(5 * time.Minute)
	fmt.Printf("\nphone received %d bytes total; the second visit cost nothing\n",
		net.UsageOf("phone").BytesRecv)
}
