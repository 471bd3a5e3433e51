// Self-update example — the paper's "Next generation middleware should
// be able to ... use COD techniques to dynamically update itself": a device
// holding codec v1.0 hears a beacon advertising v1.1 from a nearby kiosk and
// upgrades itself, verified against the publisher's signature.
//
//	go run ./examples/selfupdate
package main

import (
	"fmt"
	"log"
	"time"

	"logmob"
	"logmob/internal/app"
	"logmob/internal/discovery"
	"logmob/internal/transport"
	"logmob/internal/update"
)

func main() {
	sim := logmob.NewSim(21)
	net := logmob.NewNetwork(sim)
	sn := logmob.NewSimNetwork(net)

	publisher, err := logmob.NewIdentity("codec-vendor")
	if err != nil {
		log.Fatal(err)
	}
	trust := logmob.NewTrustStore()
	trust.TrustIdentity(publisher)

	mk := func(name string, x float64) (*logmob.Host, *logmob.Beacon) {
		net.AddNode(name, logmob.Position{X: x}, logmob.AdHoc)
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
		b := discovery.NewBeacon(h.Mux().Channel(transport.ChanBeacon), sim, 3*time.Second)
		b.Start()
		return h, b
	}
	kiosk, kioskBeacon := mk("kiosk", 0)
	device, deviceBeacon := mk("device", 15)

	// The device shipped with codec v1.0.
	v10 := app.BuildCodec(publisher, "ogg", "1.0", 2048)
	if err := device.Registry().Put(v10); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device holds %s v1.0\n", app.CodecName("ogg"))

	// The kiosk publishes and advertises v1.1.
	v11 := app.BuildCodec(publisher, "ogg", "1.1", 2048)
	if err := kiosk.Publish(v11); err != nil {
		log.Fatal(err)
	}
	update.AdvertiseComponents(kiosk, kioskBeacon, time.Minute)
	fmt.Println("kiosk advertises v1.1 over ad-hoc beacons")

	// The device's updater notices and upgrades itself.
	up := update.New(device, deviceBeacon, sim, 10*time.Second)
	up.OnUpdate = func(name, provider, oldV, newV string) {
		fmt.Printf("t=%-4v middleware self-update: %s %s -> %s (from %s, signature verified)\n",
			sim.Now().Round(time.Second), name, oldV, newV, provider)
	}
	up.Start()

	sim.RunFor(time.Minute)

	got, ok := device.Registry().GetAtLeast(app.CodecName("ogg"), "1.1")
	if !ok {
		log.Fatal("update never happened")
	}
	fmt.Printf("\ndevice now holds v%s; updater stats: %+v\n", got.Manifest.Version, up.Stats())
}
