package netsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// This file proves the broadcast run (Sim.joinRun: receivers of one
// broadcast that land on one instant back to back share one event) equal to
// the per-receiver loop it replaced, which oracle_test.go keeps as
// broadcastPerReceiver.

// bcastWorld is one side of the differential: a small mixed-class cluster in
// which everybody hears everybody, with handlers that do everything a
// handler may do from inside a sweep. bcast is either Network.Broadcast or
// the per-receiver oracle; nested broadcasts go through it too.
type bcastWorld struct {
	sim   *Sim
	net   *Network
	ids   []string
	trace []string
	bcast func(from string, payload []byte) int
}

// bcastBudgetPayload is what 'e' makes a2 transmit: against a2's budget of
// bcastBudget it spends the battery in one broadcast.
const (
	bcastBudgetPayload = 400
	bcastBudget        = 2000
)

// newBcastWorld lays the cluster out. Insertion order is the order a
// broadcast visits receivers in, so it is chosen to give one broadcast both
// blocks of equal delay (a0..a3, w0..w2) and an interleaved tail (g0, a4,
// w3) whose delays alternate. From a WLAN sender the three classes give
// three different delays; from an ad-hoc sender two.
func newBcastWorld(sim *Sim, oracle bool, loss float64) *bcastWorld {
	w := &bcastWorld{sim: sim, net: NewNetwork(sim)}
	if oracle {
		w.bcast = w.net.broadcastPerReceiver
	} else {
		w.bcast = w.net.Broadcast
	}
	adhoc, wlan, gprs := AdHoc, WLAN, GPRS
	adhoc.Loss, wlan.Loss, gprs.Loss = loss, loss, loss
	add := func(id string, c LinkClass) {
		i := float64(len(w.ids))
		w.net.AddNode(id, Position{X: i, Y: 2 * i / 3}, c) // all within 12 m
		w.net.SetHandler(id, w.handler(id))
		w.ids = append(w.ids, id)
	}
	for _, id := range []string{"a0", "a1", "a2", "a3"} {
		add(id, adhoc)
	}
	for _, id := range []string{"w0", "w1", "w2"} {
		add(id, wlan)
	}
	add("g0", gprs)
	add("a4", adhoc)
	add("w3", wlan)
	w.net.AddNode("far", Position{X: 5000}, adhoc) // never a neighbour
	w.net.SetEnergyBudget("a2", bcastBudget)
	return w
}

func (w *bcastWorld) logf(format string, args ...any) {
	w.trace = append(w.trace, fmt.Sprintf(format, args...))
}

// handler logs the reception and then acts on the payload's first byte:
//
//	'z' every receiver schedules a callback at delay 0
//	'u' every receiver answers the sender with a (pooled) unicast
//	'r' a1 and w1 re-broadcast from inside the sweep
//	'd' a1 takes a3 — a later receiver of the same run — down for 50 ms
//	'e' a1 makes a2 — a later receiver — spend its whole battery
func (w *bcastWorld) handler(self string) Handler {
	return func(from string, p []byte) {
		w.logf("%v %s>%s %d", w.sim.Now(), from, self, len(p))
		if len(p) == 0 {
			return
		}
		switch p[0] {
		case 'z':
			w.sim.Schedule(0, func() { w.logf("%v cb %s", w.sim.Now(), self) })
		case 'u':
			_ = w.net.Send(self, from, []byte("pong")) // unreachable by then is fine
		case 'r':
			if self == "a1" || self == "w1" {
				w.bcast(self, append([]byte{'p'}, p[1:]...))
			}
		case 'd':
			if self == "a1" {
				w.net.SetUp("a3", false)
				w.sim.Schedule(50*time.Millisecond, func() { w.net.SetUp("a3", true) })
			}
		case 'e':
			if self == "a1" {
				w.bcast("a2", make([]byte, bcastBudgetPayload))
			}
		}
	}
}

// scheduleOnDrop installs a DropHandler that logs the loss and schedules a
// callback for the very instant the lost hop would have been delivered: in
// the per-receiver world that callback sorts between the receivers on
// either side of the loss, so a run must break there.
func (w *bcastWorld) scheduleOnDrop() {
	w.net.DropHandler = func(from, to string, size int) {
		w.logf("%v drop %s>%s %d", w.sim.Now(), from, to, size)
		air := transferTime(bottleneck(w.net.Node(from).Class, w.net.Node(to).Class), size)
		w.sim.Schedule(air, func() { w.logf("%v dropcb %s>%s", w.sim.Now(), from, to) })
	}
}

// payload builds a size-byte message of the given kind.
func bcastPayload(kind byte, size int) []byte {
	p := make([]byte, max(size, 1))
	p[0] = kind
	return p
}

// fingerprint is everything the differential compares: the reception trace,
// every node's traffic account, the sequence numbers consumed, the clock and
// the next draw of both RNGs.
func (w *bcastWorld) fingerprint() []string {
	out := append([]string(nil), w.trace...)
	for _, id := range w.net.Nodes() {
		out = append(out, fmt.Sprintf("usage %s %+v up=%v", id, w.net.UsageOf(id), w.net.Node(id).Up))
	}
	out = append(out, fmt.Sprintf("now=%v seq=%d faults=%+v rand=%d faultrand=%d",
		w.sim.Now(), w.sim.seq, w.net.FaultStats(), w.sim.Rand().Int63(), w.net.faultRand().Int63()))
	return out
}

// bcastEngines are the four worlds of the differential: the run-folding
// Broadcast and the per-receiver oracle, each on the wheel and on the heap
// queue. The first is the one under test.
var bcastEngines = []struct {
	name   string
	mk     func(int64) *Sim
	oracle bool
}{
	{"runs/wheel", NewSim, false},
	{"runs/heap", newSimHeap, false},
	{"per-receiver/wheel", NewSim, true},
	{"per-receiver/heap", newSimHeap, true},
}

// diffBcastWorlds drives one script on all four worlds and fails on the
// first line where any of them differs from the first. It returns the world
// under test, for sub-cases that also assert their scenario really happened.
func diffBcastWorlds(t testing.TB, loss float64, script func(w *bcastWorld)) *bcastWorld {
	t.Helper()
	var first *bcastWorld
	var want []string
	for _, eng := range bcastEngines {
		w := newBcastWorld(eng.mk(11), eng.oracle, loss)
		script(w)
		w.sim.RunUntilIdle(1_000_000)
		got := w.fingerprint()
		if first == nil {
			first, want = w, got
			continue
		}
		for i := 0; i < len(got) || i < len(want); i++ {
			var g, x string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				x = want[i]
			}
			if g != x {
				t.Fatalf("%s diverged from %s at line %d:\n  %s: %s\n  %s: %s",
					eng.name, bcastEngines[0].name, i, bcastEngines[0].name, x, eng.name, g)
			}
		}
	}
	return first
}

func traceCount(w *bcastWorld, substr string) int {
	n := 0
	for _, l := range w.trace {
		if strings.Contains(l, substr) {
			n++
		}
	}
	return n
}

func traceHas(w *bcastWorld, substr string) bool { return traceCount(w, substr) > 0 }

// TestBroadcastRunsMatchPerReceiverOracle: the same scripts on the
// run-folding Broadcast and on the per-receiver oracle, on both queues,
// must leave identical (now, from, to, len) traces, per-node Usage,
// consumed sequence numbers and next RNG draws.
//
// Two sub-cases exist to fail when half of the join condition is deleted:
// "drop handler schedules between receivers" fails without the
// consecutive-seq test, "equal delay, different air" fails without the air
// equality. (Checked by deleting each in a scratch copy.)
func TestBroadcastRunsMatchPerReceiverOracle(t *testing.T) {
	t.Run("mixed classes split one broadcast into several delays", func(t *testing.T) {
		w := diffBcastWorlds(t, 0, func(w *bcastWorld) {
			for _, from := range w.ids {
				w.bcast(from, bcastPayload('p', 64))
				w.sim.RunFor(3 * time.Millisecond)
			}
		})
		// From w0: {a0..a3}, {w1,w2}, then g0, a4, w3 alone — five events
		// for nine receptions. The white-box half of the claim.
		w2 := newBcastWorld(NewSim(11), false, 0)
		w2.bcast("w0", bcastPayload('p', 64))
		if got := w2.sim.Pending(); got != 5 {
			t.Errorf("w0's broadcast to 9 neighbours is %d events, want 5", got)
		}
		if !traceHas(w, "w0>g0") {
			t.Error("the GPRS node never heard w0")
		}
	})

	t.Run("drop handler schedules between receivers", func(t *testing.T) {
		w := diffBcastWorlds(t, 0.3, func(w *bcastWorld) {
			w.scheduleOnDrop()
			for i := 0; i < 40; i++ {
				w.bcast(w.ids[i%len(w.ids)], bcastPayload('p', 32+i))
				w.sim.RunFor(time.Duration(i%4) * 10 * time.Millisecond)
			}
		})
		if !traceHas(w, "dropcb") {
			t.Fatal("no hop was lost: the sub-case tested nothing")
		}
	})

	t.Run("equal delay, different air", func(t *testing.T) {
		// From w0, a3 (ad-hoc bottleneck: 30 ms + size/90e3) is followed by
		// w1 (8 ms + size/650e3). A pair rule jitters w0-w1 by 0 or 1 tick
		// of exactly the difference, so on a draw of 1 both land on one
		// instant back to back — with different air, which deliver charges
		// to the receiver's Airtime.
		const size = 100
		diff := transferTime(bottleneck(WLAN, AdHoc), size) - transferTime(WLAN, size)
		w := diffBcastWorlds(t, 0, func(w *bcastWorld) {
			w.net.ImpairLink("w0", "w1", Impairment{JitterTicks: 1, JitterTick: diff})
			for i := 0; i < 16; i++ {
				w.bcast("w0", bcastPayload('p', size))
				w.sim.RunFor(time.Second)
			}
		})
		if w.net.FaultStats().Jittered == 0 {
			t.Fatal("the jitter draw never came up 1: the sub-case tested nothing")
		}
	})

	t.Run("handlers schedule, answer and re-broadcast from inside the sweep", func(t *testing.T) {
		w := diffBcastWorlds(t, 0, func(w *bcastWorld) {
			for i, kind := range []byte("zurzur") {
				w.bcast(w.ids[(3*i)%len(w.ids)], bcastPayload(kind, 48))
				w.sim.RunFor(20 * time.Millisecond)
			}
		})
		if !traceHas(w, " cb ") || !traceHas(w, "a1>a0 48") {
			t.Fatal("no delay-0 callback or no re-broadcast in the trace")
		}
	})

	t.Run("a later receiver of the same run goes down", func(t *testing.T) {
		w := diffBcastWorlds(t, 0, func(w *bcastWorld) {
			w.bcast("a0", bcastPayload('d', 64))
			w.sim.RunFor(time.Second)
			w.bcast("a0", bcastPayload('p', 64)) // a3 is back up
		})
		if traceCount(w, "a0>a2 64") != 2 || traceCount(w, "a0>a3 64") != 1 {
			t.Fatalf("want a2 served twice, a3 skipped while down and served after:\n%s", strings.Join(w.trace, "\n"))
		}
	})

	t.Run("a later receiver's battery is spent mid-run", func(t *testing.T) {
		w := diffBcastWorlds(t, 0, func(w *bcastWorld) {
			w.bcast("a0", bcastPayload('e', 64))
		})
		if !traceHas(w, "a0>a1 64") || traceHas(w, "a0>a2") || !traceHas(w, "a0>a3 64") {
			t.Fatalf("want a1 and a3 served and a2 dead at its turn:\n%s", strings.Join(w.trace, "\n"))
		}
		if w.net.BatteryLevel("a2") != 0 {
			t.Fatal("a2 still has battery")
		}
	})

	t.Run("everything at once", func(t *testing.T) {
		w := diffBcastWorlds(t, 0.15, func(w *bcastWorld) {
			w.scheduleOnDrop()
			w.net.ImpairAll(Impairment{Drop: 0.1, JitterTicks: 2, JitterTick: time.Millisecond})
			w.net.SetEnergyBudget("a2", 60_000)
			rng := rand.New(rand.NewSource(5))
			kinds := []byte("pzurdep")
			gaps := []time.Duration{0, time.Millisecond, 7 * time.Millisecond, 40 * time.Millisecond, 700 * time.Millisecond}
			for i := 0; i < 400; i++ {
				w.bcast(w.ids[rng.Intn(len(w.ids))], bcastPayload(kinds[rng.Intn(len(kinds))], 1+rng.Intn(200)))
				w.sim.RunFor(gaps[rng.Intn(len(gaps))])
			}
		})
		if !traceHas(w, "dropcb") || w.net.FaultStats().Jittered == 0 || w.net.BatteryLevel("a2") != 0 {
			t.Fatal("the script missed a loss, a jittered hop or a2's exhaustion")
		}
	})
}

// TestStepCountsEventsNotReceptions states the rule Step, Pending and
// RunUntilIdle's guard follow since receivers share events: they count
// scheduler events. Five same-class receivers of a lossless broadcast are
// one pending event and one Step.
func TestStepCountsEventsNotReceptions(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	got := 0
	for _, id := range []string{"c", "r0", "r1", "r2", "r3", "r4"} {
		net.AddNode(id, Position{X: float64(len(id))}, losslessAdHoc())
		net.SetHandler(id, func(string, []byte) { got++ })
	}
	if n := net.Broadcast("c", []byte("hello")); n != 5 {
		t.Fatalf("Broadcast = %d, want 5", n)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 event for 5 receptions", s.Pending())
	}
	if !s.Step() || got != 5 {
		t.Fatalf("one Step delivered %d receptions, want 5", got)
	}
	if s.Step() || s.Pending() != 0 {
		t.Fatal("events left after the run fired")
	}
	// A unicast is a run of one.
	if err := net.Send("c", "r0", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 1 || !s.Step() || got != 6 {
		t.Fatalf("unicast: pending/step/got = %d/%d", s.Pending(), got)
	}
}

// TestEventSize pins event to the 96-byte allocation class. Events are
// recycled, so the size is paid once per queue slot, not per firing.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 96 {
		t.Fatalf("event is %d bytes, want <= 96", got)
	}
}

// TestBroadcastAllocs: once the free lists and the due heap are warm, a
// broadcast to eight neighbours allocates its shared payload copy and
// nothing else — no event, no receiver list — and a unicast send-and-deliver
// allocates nothing.
func TestBroadcastAllocs(t *testing.T) {
	s := NewSim(1)
	net := NewNetwork(s)
	ids := []string{"c"}
	for i := 0; i < 8; i++ {
		ids = append(ids, fmt.Sprintf("r%d", i))
	}
	for i, id := range ids {
		net.AddNode(id, Position{X: float64(i)}, losslessAdHoc())
		net.SetHandler(id, func(string, []byte) {})
	}
	payload := make([]byte, 64)
	bcast := func() {
		if net.Broadcast("c", payload) != 8 {
			t.Fatal("lost a neighbour")
		}
		s.RunUntilIdle(0)
	}
	send := func() {
		if err := net.Send("c", "r3", payload); err != nil {
			t.Fatal(err)
		}
		s.RunUntilIdle(0)
	}
	for i := 0; i < 1000; i++ { // the free lists and the due heap get their capacity
		bcast()
		send()
	}
	if got := testing.AllocsPerRun(200, bcast); got != 1 {
		t.Errorf("warm broadcast to 8 neighbours: %v allocs, want 1 (the payload copy)", got)
	}
	if got := testing.AllocsPerRun(200, send); got != 0 {
		t.Errorf("warm unicast send-and-deliver: %v allocs, want 0", got)
	}
}
