// Disaster example — the paper's "Communication in Disaster Scenarios": in
// a partitioned ad-hoc field, a courier agent carries a message hop by hop,
// waiting out partitions, while conventional end-to-end routing fails until
// a full path exists.
//
//	go run ./examples/disaster
package main

import (
	"fmt"
	"log"
	"time"

	"logmob"
	"logmob/internal/agent"
	"logmob/internal/baseline"
	"logmob/internal/netsim"
	"logmob/internal/security"
)

func main() {
	sim := logmob.NewSim(11)
	net := logmob.NewNetwork(sim)
	sn := logmob.NewSimNetwork(net)

	// A 400m line: src ... three roaming relays ... dst. Radio range 60m,
	// so there is never a contemporaneous end-to-end path; only node
	// mobility can ferry data across.
	class := logmob.AdHoc
	class.Range = 60

	platforms := make(map[string]*logmob.AgentPlatform)
	addNode := func(name string, pos logmob.Position) *logmob.Host {
		net.AddNode(name, pos, class)
		ep, err := sn.Endpoint(name)
		if err != nil {
			log.Fatal(err)
		}
		h, err := logmob.NewHost(logmob.HostConfig{
			Name: name, Endpoint: ep, Scheduler: sim,
			Policy: security.Policy{AllowUnsigned: true},
		})
		if err != nil {
			log.Fatal(err)
		}
		platforms[name] = logmob.NewAgentPlatform(h, logmob.AgentEnv{Seed: int64(len(platforms) + 1)})
		return h
	}

	src := addNode("field-post", logmob.Position{X: 0, Y: 50})
	dst := addNode("hospital", logmob.Position{X: 400, Y: 50})
	for i := 0; i < 3; i++ {
		addNode(fmt.Sprintf("relay-%d", i), logmob.Position{X: float64(100 + 100*i), Y: 50})
	}
	_ = src

	// Relays patrol the field; endpoints stay put.
	net.StartMobility(&netsim.RandomWaypoint{
		FieldW: 400, FieldH: 100, SpeedMin: 3, SpeedMax: 8, Pause: 2 * time.Second,
	}, time.Second, "relay-0", "relay-1", "relay-2")

	var agentDelivered time.Duration
	dst.OnMessage(func(from, topic string, data []byte) {
		agentDelivered = sim.Now()
		fmt.Printf("t=%-8v agent delivered to hospital: %q (carried by %s)\n",
			sim.Now().Round(time.Second), data, from)
	})

	// The conventional baseline: route end-to-end, retransmitting every
	// second until the hospital sees the message. A retransmission only gets
	// through while a complete multi-hop path exists at send time; in this
	// sparse field that never happens. The routed message carries its own
	// mux channel byte, so the hospital observes it beside the kernel
	// protocol.
	const routedChan = 9
	routed := false
	dst.Mux().Channel(routedChan).SetHandler(func(string, []byte) { routed = true })
	msgr := baseline.NewMessenger(net, 10*time.Minute)
	msgr.SendUntilConfirmed("field-post", "hospital", append([]byte{routedChan}, "need supplies"...),
		func() bool { return routed },
		func(o baseline.MessageOutcome) {
			fmt.Printf("t=%-8v end-to-end routing gave up: delivered=%v after %d attempts\n",
				sim.Now().Round(time.Second), o.Delivered, o.Attempts)
		})

	// The agent: store-carry-forward courier.
	if _, err := platforms["field-post"].Spawn("courier", agent.CourierProgram,
		agent.NewCourierData("hospital", "disaster", []byte("need supplies")), "main"); err != nil {
		log.Fatal(err)
	}

	fmt.Println("field: field-post --- relay x3 (roaming) --- hospital, range 60m over 400m")
	fmt.Println("running 10 simulated minutes...")
	sim.RunFor(11 * time.Minute)

	if agentDelivered > 0 {
		fmt.Printf("\ncourier agent delivered at t=%v; routing never had a full path\n",
			agentDelivered.Round(time.Second))
	} else {
		fmt.Println("\ncourier agent still in the field (increase the run time)")
	}
}
