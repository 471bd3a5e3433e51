package agent

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"logmob/internal/lmu"
	"logmob/internal/netsim"
	"logmob/internal/vm"
)

// An arriving agent is decoded into a unit its host recycles once the agent's
// visit ends, by an acknowledged onward migration or by finishing there: the
// next arrival overwrites the unit's frame and data map. These tests hold
// what must survive that reuse. Each sends 50 more agents through the same
// hosts after the fact, so a unit that was handed back when it should not
// have been is refilled before the check.

// deliverThereAndBack goes to itinerary stop 0, delivers its payload there,
// returns to stop 1 and halts.
var deliverThereAndBack = vm.MustAssemble(`
.entry main
main:
	push 0
	host a_itin_select
	pop
	host a_migrate
	pop
	host a_deliver
	pop
	push 1
	host a_itin_select
	pop
	host a_migrate
	pop
	halt
`)

// recycleWorld is two hosts in range of each other, a and b, plus an
// itinerary that visits b and comes back to a.
func recycleWorld(t *testing.T) (*world, []byte) {
	t.Helper()
	w := newWorld(t)
	w.addHost(t, "a", netsim.Position{}, Env{})
	w.addHost(t, "b", netsim.Position{X: 10}, Env{})
	return w, EncodeItinerary([]string{"b", "a"})
}

// passAgents sends n agents from a to b and back, one at a time. Each one
// arrives at b, is recycled there when it leaves, and finishes at a.
func passAgents(t *testing.T, w *world, n int) {
	t.Helper()
	walker := vm.MustAssemble(itineraryWalkerSource)
	itin := EncodeItinerary([]string{"b", "a"})
	before := *w.arrived["b"]
	for i := 0; i < n; i++ {
		if _, err := w.platforms["a"].Spawn("passer", walker, map[string][]byte{KeyItinerary: itin}, "main"); err != nil {
			t.Fatal(err)
		}
		w.sim.RunFor(time.Second)
	}
	if got := *w.arrived["b"] - before; got != int64(n) {
		t.Fatalf("%d of %d passing agents reached b", got, n)
	}
}

// A message handler may keep the payload it is handed. The delivering
// agent's unit aliases a frame that b reuses for the agents arriving after
// it left, so a_deliver must hand over a copy.
func TestDeliveredPayloadSurvivesRecycling(t *testing.T) {
	w, itin := recycleWorld(t)
	var kept [][]byte
	w.hosts["b"].OnMessage(func(_, _ string, data []byte) { kept = append(kept, data) })
	const n = 1 + 50
	for i := 0; i < n; i++ {
		// Equal lengths, so each arrival fits the frame the previous one left.
		data := NewCourierData("b", "t", []byte(fmt.Sprintf("payload-%02d", i)))
		data[KeyItinerary] = itin
		if _, err := w.platforms["a"].Spawn("courier", deliverThereAndBack, data, "main"); err != nil {
			t.Fatal(err)
		}
		w.sim.RunFor(time.Second)
	}
	if len(kept) != n {
		t.Fatalf("%d deliveries, want %d", len(kept), n)
	}
	for i, got := range kept {
		if want := fmt.Sprintf("payload-%02d", i); string(got) != want {
			t.Errorf("delivery %d kept %q, want %q", i, got, want)
		}
	}
}

// OnDone's Record.Unit is lent for the call: an arrived unit that finishes
// goes back to its host, and the next arrival decodes into it. During the
// call it holds the unit as the agent finished, and what the hook copied out
// of it survives the later arrivals.
func TestFinishedUnitSurvivesRecycling(t *testing.T) {
	w, itin := recycleWorld(t)
	var done *lmu.Unit
	var snap *lmu.Unit
	var reused int
	w.platforms["a"].env.OnDone = func(r Record) {
		switch {
		case done == nil:
			if r.Name != "courier" || r.Unit.Manifest.Name != r.Name {
				t.Errorf("Record.Name = %q, unit %q, want courier", r.Name, r.Unit.Manifest.Name)
			}
			if got := string(r.Unit.Data[KeyPayload]); got != "keep me" {
				t.Errorf("Record.Unit's payload = %q in OnDone, want \"keep me\"", got)
			}
			if got := dataCounter(r.Unit, keyHops); got != r.Hops || got != 2 {
				t.Errorf("Record.Unit's _hops = %d, Record.Hops %d, want 2", got, r.Hops)
			}
			done, snap = r.Unit, r.Unit.Clone()
		case r.Unit == done:
			reused++
		}
	}
	data := NewCourierData("b", "t", []byte("keep me"))
	data[KeyItinerary] = itin
	if _, err := w.platforms["a"].Spawn("courier", deliverThereAndBack, data, "main"); err != nil {
		t.Fatal(err)
	}
	w.sim.RunFor(time.Second)
	if done == nil || len(snap.State) == 0 {
		t.Fatalf("no arrived unit finished at a: %+v", w.records)
	}
	want := snap.Clone()
	passAgents(t, w, 50)
	if !reflect.DeepEqual(snap, want) {
		t.Errorf("the copy OnDone kept changed after later arrivals:\ngot  %+v\nwant %+v", snap, want)
	}
	if reused != 50 {
		t.Errorf("%d of the 50 later agents finished in the recycled unit, want all", reused)
	}
}

// A unit handed to SpawnUnit stays its caller's: it left without having
// arrived, so it is never handed back.
func TestSpawnedUnitSurvivesRecycling(t *testing.T) {
	w, itin := recycleWorld(t)
	u := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "courier", Version: "1.0", Kind: lmu.KindAgent},
		Code:     deliverThereAndBack.Encode(),
		Data:     NewCourierData("b", "t", []byte("mine")),
	}
	u.Data[KeyItinerary] = itin
	if _, err := w.platforms["a"].SpawnUnit(u, "main"); err != nil {
		t.Fatal(err)
	}
	// The agent has run to its first migration, so u holds its final
	// contents: the snapshot and _prev are written before the transfer.
	snap := u.Clone()
	w.sim.RunFor(time.Second)
	if w.platforms["a"].Stats().Migrations != 1 || *w.arrived["b"] != 1 {
		t.Fatalf("the spawned agent did not leave: a %+v, %d arrived at b", w.platforms["a"].Stats(), *w.arrived["b"])
	}
	passAgents(t, w, 50)
	if got := u.Clone(); !reflect.DeepEqual(got, snap) {
		t.Errorf("SpawnUnit's unit changed after later arrivals:\ngot  %+v\nwant %+v", got, snap)
	}
}

// An agent whose migration is refused resumes where it is, on the unit it
// arrived in: that unit is restored from before the refusal and read after
// it, with agents passing through its host on both sides.
func TestRefusedAgentResumesIntact(t *testing.T) {
	w, _ := recycleWorld(t)
	w.addHost(t, "c", netsim.Position{X: 5}, Env{})
	w.hosts["c"].SetAgentRuntime(nil) // c refuses every agent
	prog := vm.MustAssemble(`
.globals 2
.entry main
main:
	push 4242
	gstore 0
	push 0
	host a_itin_select
	pop
	host a_migrate        ; a -> b
	pop
	push 100000
	host a_sleep          ; agents pass through b
	push 1
	host a_itin_select
	pop
	host a_migrate        ; b -> c, refused: resumes on b with 0
	gstore 1
	push 100000
	host a_sleep          ; agents pass through b again
	host a_deliver
	pop
	push 2
	host a_itin_select
	pop
	host a_migrate        ; b -> a
	pop
	gload 1
	gload 0
	halt
`)
	var payload string
	keep := w.platforms["a"].env.OnDone
	w.platforms["a"].env.OnDone = func(r Record) {
		if r.Name == "stubborn" {
			payload = string(r.Unit.Data[KeyPayload]) // lent for this call
		}
		keep(r)
	}
	var delivered []string
	w.hosts["b"].OnMessage(func(_, topic string, data []byte) {
		if topic == "refused" {
			delivered = append(delivered, string(data))
		}
	})
	data := NewCourierData("b", "refused", []byte("still here"))
	data[KeyItinerary] = EncodeItinerary([]string{"b", "c", "a"})
	if _, err := w.platforms["a"].Spawn("stubborn", prog, data, "main"); err != nil {
		t.Fatal(err)
	}
	w.sim.RunFor(5 * time.Second)
	passAgents(t, w, 50)
	w.sim.RunFor(60 * time.Second)
	if got := w.platforms["b"].Stats().MigrationFailures; got != 1 {
		t.Fatalf("b MigrationFailures = %d, want 1", got)
	}
	passAgents(t, w, 50)
	w.sim.RunFor(60 * time.Second)

	if len(delivered) != 1 || delivered[0] != "still here" {
		t.Errorf("delivered %q, want [\"still here\"]", delivered)
	}
	var rec *Record
	for i := range w.records {
		if w.records[i].Name == "stubborn" {
			rec = &w.records[i]
		}
	}
	if rec == nil {
		t.Fatal("the refused agent never finished")
	}
	if rec.Status != StatusCompleted || !reflect.DeepEqual(rec.Stack, []int64{0, 4242}) {
		t.Errorf("refused agent finished %v %q with stack %v, want completed [0 4242]", rec.Status, rec.Detail, rec.Stack)
	}
	if payload != "still here" {
		t.Errorf("refused agent's payload = %q", payload)
	}
}
