// Adaptive example — the paper's next-generation requirement that
// "different mobile code paradigms could be plugged-in dynamically and used
// when needed after assessment of the environment and application", on the
// public API only: a declarative scenario senses a degrading link into each
// device's context service, and per-device adaptation engines re-select the
// paradigm per interaction — Client/Server while the link is clean, a
// ship-once paradigm as loss climbs, the frugal choice as the battery
// drains.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"os"
	"time"

	"logmob"
)

func main() {
	// The task stream: a chatty control exchange against a comparatively
	// heavy code bundle. Clean link: chatting is cheapest. Lossy link: the
	// six message legs per task hurt and shipping the code once wins.
	task := logmob.ParadigmTask{
		Interactions: 3, ReqBytes: 24, ReplyBytes: 24,
		CodeBytes: 1200, StateBytes: 120, ResultBytes: 16,
	}

	stream := &logmob.AdaptiveWorkload{
		Pop: "device", ServerPop: "station",
		Model:        task,
		Gap:          2 * time.Second,
		BatteryAware: true,
		Objective:    logmob.ParadigmObjective{BytesWeight: 0.3, LatencyWeight: 600, EnergyWeight: 0.3},
		Label:        "adaptive",
	}

	spec := &logmob.Scenario{
		Name:  "adaptive quickstart",
		Field: logmob.ScenarioField{Width: 100, Height: 100},
		Populations: []logmob.Population{
			{
				Name: "station", Place: logmob.PlacePoints{{X: 50, Y: 50}},
				Link: logmob.WLAN, Range: 200,
				AllowUnsigned: true, Agents: true,
			},
			{
				Name: "device", Count: 2,
				Place: logmob.PlacePoints{{X: 60, Y: 50}, {X: 40, Y: 50}},
				Link:  logmob.WLAN, Range: 200,
				AllowUnsigned: true, Agents: true, AgentSeedOffset: 1,
				EnergyBudget: 3e5, // a battery: traffic energy drains it
			},
		},
		Warmup:   5 * time.Second,
		Duration: 4 * time.Minute,
		// The adversity layer degrades the link mid-run; the sensing layer
		// samples what the devices actually experience every 2 seconds.
		Faults: logmob.ScenarioFaults{
			Retry: logmob.RetryFault{Budget: 3, Timeout: time.Second},
			Events: []logmob.FaultEvent{
				{At: 90 * time.Second, Impairment: logmob.Impairment{Drop: 0.35, JitterTicks: 2}},
			},
		},
		Sense:     logmob.ScenarioSense{Tick: 2 * time.Second},
		Workloads: []logmob.ScenarioWorkload{stream},
		Probes:    []logmob.ScenarioProbe{stream},
	}

	world, table := logmob.RunSpec(spec, 42)
	fmt.Println("the same task stream, re-decided per interaction as the world degrades:")
	table.Render(os.Stdout)

	done := stream.Stats.ByParadigm
	fmt.Printf("\ncompletions by paradigm: CS=%d REV=%d COD=%d MA=%d (of %d tasks)\n",
		done[logmob.CS], done[logmob.REV], done[logmob.COD], done[logmob.MA], stream.Stats.Completed)
	for _, eng := range stream.Engines() {
		if h := eng.History(); len(h) > 0 {
			fmt.Printf("an engine's first/last decisions: %s@%v -> %s@%v (%d switches)\n",
				h[0].Paradigm, h[0].At, h[len(h)-1].Paradigm, h[len(h)-1].At, eng.Switches())
			break
		}
	}
	fmt.Printf("device battery left: %.0f%%\n", 100*world.Net.BatteryLevel("device0"))
}
