package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"logmob/internal/ctxsvc"
	"logmob/internal/netsim"
	"logmob/internal/policy"
)

// senseSpec is a small mobile world with the full sensing stack on: lossy
// impaired links, ack/retry transport, batteries, beacons and mobility.
func senseSpec(workers int) *Spec {
	return &Spec{
		Name:  "sense",
		Field: Field{Width: 300, Height: 300},
		Populations: []Population{
			{
				Name: "m", Count: 30, Place: PlaceUniform{},
				Link: netsim.AdHoc, Range: 60,
				EnergyBudget: 2e5,
				Beacon:       5 * time.Second,
				AdSelf:       "sense/",
				Mobility: &netsim.RandomWaypoint{
					FieldW: 300, FieldH: 300, SpeedMin: 1, SpeedMax: 4,
					Pause: 2 * time.Second,
				},
				MobilityTick: time.Second,
			},
		},
		Warmup:   10 * time.Second,
		Duration: 60 * time.Second,
		Workers:  workers,
		Faults: Faults{
			Impairment: netsim.Impairment{Drop: 0.1},
			Retry:      RetryFault{Budget: 3, Timeout: time.Second},
		},
		Sense: Sense{Tick: 2 * time.Second},
		Workloads: []Workload{
			// Some unicast traffic so retry accounting has something to
			// observe.
			Calls{Client: "m0", Server: "m1", Service: "s", ReqBytes: 64, ReplyBytes: 64, Rounds: 40},
		},
	}
}

// senseFingerprint renders every node's full sensed history, so one string
// captures the sensing layer's entire output for a run.
func senseFingerprint(w *World) string {
	var sb strings.Builder
	keys := []ctxsvc.Key{
		ctxsvc.KeyBandwidth, ctxsvc.KeyLatency, ctxsvc.KeyLoss,
		ctxsvc.KeyBattery, ctxsvc.KeyNeighborCount, ctxsvc.KeyRetryRate,
		ctxsvc.KeyConnectivity, ctxsvc.KeyEnergyPerByte,
	}
	for _, name := range w.Net.Nodes() {
		h := w.Hosts[name]
		fmt.Fprintf(&sb, "%s:\n", name)
		for _, k := range keys {
			for _, s := range h.Context().History(k, 0) {
				fmt.Fprintf(&sb, "  %s@%v=%s\n", k, s.At, s.Value)
			}
		}
	}
	return sb.String()
}

// TestSensorSamplingDeterministicAcrossWorkers is the sensing layer's core
// contract: the sensed context histories — every sample of every attribute
// on every node — are byte-identical at workers=1 and workers=4, under
// mobility, loss, retries and battery drain.
func TestSensorSamplingDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		w, _ := senseSpec(workers).Run(7)
		return senseFingerprint(w)
	}
	serial := run(1)
	parallel := run(4)
	if serial != parallel {
		t.Fatalf("sensed histories differ between workers=1 and workers=4\n--- w=1 ---\n%.2000s\n--- w=4 ---\n%.2000s", serial, parallel)
	}
	if !strings.Contains(serial, string(ctxsvc.KeyRetryRate)) {
		t.Fatalf("no retry-rate samples sensed:\n%.1000s", serial)
	}
	if !strings.Contains(serial, string(ctxsvc.KeyBattery)) {
		t.Fatalf("no battery samples sensed:\n%.1000s", serial)
	}
}

// TestSenseWritesLiveAttributes spot-checks the sensed values against the
// world they were read from.
func TestSenseWritesLiveAttributes(t *testing.T) {
	w, _ := senseSpec(1).Run(3)
	h := w.Hosts["m0"]
	ctx := h.Context()
	// Loss: the world's 10% impairment composed with the class's own loss
	// must be sensed, not the pristine class value.
	loss := ctx.GetNum(ctxsvc.KeyLoss, -1)
	if loss < 0.099 || loss >= 1 {
		t.Errorf("sensed loss = %v, want ~the 0.1 impairment", loss)
	}
	if got := ctx.GetStr(ctxsvc.KeyConnectivity, ""); got != "adhoc" {
		t.Errorf("sensed connectivity = %q", got)
	}
	if got := ctx.GetNum(ctxsvc.KeyEnergyPerByte, -1); got != netsim.AdHoc.EnergyPerByte {
		t.Errorf("sensed energy/byte = %v", got)
	}
	batt := ctx.GetNum(ctxsvc.KeyBattery, -1)
	if batt != w.Net.BatteryLevel("m0") {
		t.Errorf("sensed battery %v != live battery %v", batt, w.Net.BatteryLevel("m0"))
	}
	if batt >= 1 {
		t.Errorf("m0 sent traffic but battery still %v", batt)
	}
}

// adaptiveSpec builds a two-paradigm-friendly rig: one server population,
// one client population with agents on both so all four paradigms are
// executable.
func adaptiveSpec(wl *Adaptive, faults Faults, budget float64) *Spec {
	return &Spec{
		Name:  "adaptive",
		Field: Field{Width: 100, Height: 100},
		Populations: []Population{
			{
				Name: "srv", Place: PlacePoints{{X: 50, Y: 50}},
				Link: netsim.WLAN, Range: 200, AllowUnsigned: true,
				Agents: true,
			},
			{
				Name: "dev", Count: 2,
				Place: PlacePoints{{X: 60, Y: 50}, {X: 40, Y: 50}},
				Link:  netsim.WLAN, Range: 200, AllowUnsigned: true,
				Agents: true, AgentSeedOffset: 1,
				EnergyBudget: budget,
			},
		},
		Warmup:    5 * time.Second,
		Duration:  3 * time.Minute,
		Faults:    faults,
		Sense:     Sense{Tick: 2 * time.Second},
		Workloads: []Workload{wl},
		Probes:    []Probe{wl},
	}
}

// TestAdaptiveWorkloadCompletesTasks runs the free adaptation loop and
// checks the loop actually closed: tasks complete, decisions happen,
// engines are live.
func TestAdaptiveWorkloadCompletesTasks(t *testing.T) {
	wl := &Adaptive{
		Pop: "dev", ServerPop: "srv",
		Model: policy.Task{
			Interactions: 6, ReqBytes: 64, ReplyBytes: 64,
			CodeBytes: 1500, StateBytes: 128, ResultBytes: 16,
		},
	}
	_, table := adaptiveSpec(wl, Faults{}, 0).Run(1)
	if wl.Stats.Completed == 0 {
		t.Fatalf("no tasks completed: %+v", wl.Stats)
	}
	if wl.Stats.Completed+wl.Stats.Failed != wl.Stats.Started {
		t.Errorf("task accounting leaks: %+v", wl.Stats)
	}
	var decisions int64
	for _, e := range wl.Engines() {
		decisions += e.Decisions()
	}
	if decisions != wl.Stats.Started {
		t.Errorf("decisions %d != started %d", decisions, wl.Stats.Started)
	}
	if table == nil {
		t.Fatal("no summary table")
	}
	var sb strings.Builder
	table.Render(&sb)
	for _, want := range []string{"tasks done", "CS/REV/COD/MA", "switches"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Decisions table missing %q:\n%s", want, sb.String())
		}
	}
}

// TestAdaptiveFixedParadigms pins each control group's execution: every
// fixed paradigm — including the agent round trip — completes tasks on a
// clean link, and completions land on the pinned paradigm only.
func TestAdaptiveFixedParadigms(t *testing.T) {
	for _, p := range policy.Paradigms() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			wl := &Adaptive{
				Pop: "dev", ServerPop: "srv",
				Model: policy.Task{
					Interactions: 4, ReqBytes: 32, ReplyBytes: 32,
					CodeBytes: 1200, StateBytes: 64, ResultBytes: 16,
					ComputeUnits: 0.2, // exercises the compute paths of every paradigm
				},
				Fixed: p,
			}
			adaptiveSpec(wl, Faults{}, 0).Run(2)
			if wl.Stats.Completed == 0 {
				t.Fatalf("fixed %s completed nothing: %+v", p, wl.Stats)
			}
			for q, n := range wl.Stats.ByParadigm {
				if q != p && n > 0 {
					t.Errorf("fixed %s recorded %d completions under %s", p, n, q)
				}
			}
		})
	}
}

// TestAdaptiveSwitchesUnderBatteryDrain gives clients a tight battery: the
// adaptive stream must keep completing tasks and show battery accounting
// in its table.
func TestAdaptiveSwitchesUnderBatteryDrain(t *testing.T) {
	wl := &Adaptive{
		Pop: "dev", ServerPop: "srv",
		Model: policy.Task{
			Interactions: 8, ReqBytes: 96, ReplyBytes: 96,
			CodeBytes: 3000, StateBytes: 128, ResultBytes: 16,
		},
		BatteryAware: true,
	}
	_, table := adaptiveSpec(wl, Faults{Retry: RetryFault{Budget: 2, Timeout: time.Second}}, 3e5).Run(5)
	if wl.Stats.Completed == 0 {
		t.Fatalf("no tasks completed under battery pressure: %+v", wl.Stats)
	}
	var sb strings.Builder
	table.Render(&sb)
	if !strings.Contains(sb.String(), "batteries alive") {
		t.Errorf("battery row missing:\n%s", sb.String())
	}
}

// TestSenseValidation exercises the new validation surface.
func TestSenseValidation(t *testing.T) {
	base := func() *Spec {
		return &Spec{Populations: []Population{{Name: "p", Count: 1}}}
	}
	s := base()
	s.Sense.Tick = -time.Second
	if _, err := s.CompileChecked(1); err == nil {
		t.Error("negative sense tick compiled")
	}
	s = base()
	s.Sense = Sense{Tick: time.Second, Pops: []string{"ghost"}}
	if _, err := s.CompileChecked(1); err == nil {
		t.Error("sensing an unknown population compiled")
	}
	s = base()
	s.Sense = Sense{Tick: time.Second, Pops: []string{"p", "p"}}
	if _, err := s.CompileChecked(1); err == nil {
		t.Error("duplicate sensed population compiled")
	}
	s = base()
	s.Populations[0].EnergyBudget = -4
	if _, err := s.CompileChecked(1); err == nil {
		t.Error("negative energy budget compiled")
	}
}
