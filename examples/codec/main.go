// Codec example — the paper's "Limited Resources and Dynamic Update"
// scenario: a device with space for only a few codecs plays a skewed stream
// of audio formats, fetching decoders on demand and evicting cold ones.
//
//	go run ./examples/codec
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"logmob"
	"logmob/internal/app"
	"logmob/internal/core"
	"logmob/internal/registry"
)

const (
	formats = 12
	plays   = 60
	quota   = 3 // codecs' worth of storage
)

func main() {
	sim := logmob.NewSim(7)
	net := logmob.NewNetwork(sim)
	sn := logmob.NewSimNetwork(net)

	publisher, err := logmob.NewIdentity("codec-vendor")
	if err != nil {
		log.Fatal(err)
	}
	trust := logmob.NewTrustStore()
	trust.TrustIdentity(publisher)

	// Repository on the wired side.
	net.AddNode("repo", logmob.Position{}, logmob.LAN)
	repoEP, _ := sn.Endpoint("repo")
	repo, err := logmob.NewHost(logmob.HostConfig{
		Name: "repo", Endpoint: repoEP, Scheduler: sim, Trust: trust,
	})
	if err != nil {
		log.Fatal(err)
	}
	catalogue := app.CodecCatalogue(publisher, formats, 4<<10)
	for _, u := range catalogue {
		if err := repo.Publish(u); err != nil {
			log.Fatal(err)
		}
	}

	// The device: WLAN, tiny storage quota, LRU eviction.
	net.AddNode("device", logmob.Position{}, logmob.WLAN)
	devEP, _ := sn.Endpoint("device")
	devQuota := int64(quota) * int64(catalogue[0].Size())
	device, err := logmob.NewHost(logmob.HostConfig{
		Name: "device", Endpoint: devEP, Scheduler: sim, Trust: trust,
		Registry: logmob.NewRegistry(devQuota, registry.WithClock(sim.Now)),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("catalogue: %d codecs x %d bytes; device quota: %d bytes (%d codecs)\n\n",
		formats, catalogue[0].Size(), devQuota, quota)

	player := &app.Player{Host: device, Repo: "repo", Samples: 128}
	zipf := app.NewZipf(formats, 1.1, 7)
	next := func() string { return fmt.Sprintf("fmt-%02d", zipf.Next()) }
	retries := 0
	var play func(i int, format string)
	play = func(i int, format string) {
		player.Play(format, func(checksum int64, hit bool, err error) {
			// WLAN loses a small share of messages (LinkClass.Loss), and core
			// times a request out when its request or reply is lost, without
			// retrying. So the player retries a timed-out play itself, as a
			// scenario.FetchWave client retries a failed fetch.
			if errors.Is(err, core.ErrTimeout) {
				retries++
				fmt.Printf("play %2d: %s timed out, retrying\n", i, format)
				play(i, format)
				return
			}
			if err != nil {
				log.Fatalf("play %s: %v", format, err)
			}
			how := "fetched"
			if hit {
				how = "cache  "
			}
			if i < 12 || i == plays-1 {
				fmt.Printf("play %2d: %s via %s (checksum %d)\n", i, format, how, checksum)
			} else if i == 12 {
				fmt.Println("...")
			}
			if i+1 < plays {
				play(i+1, next())
			}
		})
	}
	play(0, next())
	sim.RunFor(time.Hour)

	// player.Plays counts every attempt; a retried play is one play.
	usage := net.UsageOf("device")
	fmt.Printf("\n%d plays (%d retried): %d fetches, %d cache hits (%.0f%%), %d evictions\n",
		plays, retries, player.Fetches, player.Hits,
		100*float64(player.Hits)/float64(plays), device.Registry().Evictions())
	fmt.Printf("device storage in use: %d / %d bytes\n", device.Registry().Used(), devQuota)
	fmt.Printf("link traffic: %d bytes (preloading all would store %d bytes)\n",
		usage.BytesRecv, int64(formats)*int64(catalogue[0].Size()))
}
