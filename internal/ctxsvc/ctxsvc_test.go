package ctxsvc

import (
	"testing"
	"time"
)

func newSvc() (*Service, *time.Duration) {
	var now time.Duration
	return New(func() time.Duration { return now }, 4), &now
}

func TestSetGet(t *testing.T) {
	s, _ := newSvc()
	s.SetNum(KeyBattery, 0.8)
	s.SetStr(KeyLocation, "cinema-lobby")
	if got := s.GetNum(KeyBattery, -1); got != 0.8 {
		t.Errorf("GetNum = %v", got)
	}
	if got := s.GetStr(KeyLocation, ""); got != "cinema-lobby" {
		t.Errorf("GetStr = %q", got)
	}
	if got := s.GetNum("missing", 42); got != 42 {
		t.Errorf("fallback = %v", got)
	}
	if got := s.GetStr("missing", "dflt"); got != "dflt" {
		t.Errorf("fallback = %q", got)
	}
}

func TestSubscribeNotifies(t *testing.T) {
	s, _ := newSvc()
	var got []float64
	s.Subscribe(KeyBattery, nil, func(k Key, v Value) { got = append(got, v.Num) })
	s.SetNum(KeyBattery, 0.9)
	s.SetNum(KeyBattery, 0.5)
	s.SetNum(KeyBandwidth, 100) // different key: no notification
	if len(got) != 2 || got[0] != 0.9 || got[1] != 0.5 {
		t.Errorf("notifications = %v", got)
	}
}

func TestSubscribePredicate(t *testing.T) {
	s, _ := newSvc()
	var fired int
	s.Subscribe(KeyBattery, func(v Value) bool { return v.Num < 0.2 }, func(Key, Value) { fired++ })
	s.SetNum(KeyBattery, 0.9)
	s.SetNum(KeyBattery, 0.1)
	s.SetNum(KeyBattery, 0.05)
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (low battery only)", fired)
	}
}

func TestSubscriptionCancel(t *testing.T) {
	s, _ := newSvc()
	fired := 0
	sub := s.Subscribe(KeyBattery, nil, func(Key, Value) { fired++ })
	s.SetNum(KeyBattery, 0.5)
	sub.Cancel()
	sub.Cancel() // idempotent
	s.SetNum(KeyBattery, 0.4)
	if fired != 1 {
		t.Errorf("fired = %d after cancel", fired)
	}
}

func TestMultipleSubscribersAndSelectiveCancel(t *testing.T) {
	s, _ := newSvc()
	var a, b int
	subA := s.Subscribe(KeyBattery, nil, func(Key, Value) { a++ })
	s.Subscribe(KeyBattery, nil, func(Key, Value) { b++ })
	s.SetNum(KeyBattery, 1)
	subA.Cancel()
	s.SetNum(KeyBattery, 2)
	if a != 1 || b != 2 {
		t.Errorf("a=%d b=%d", a, b)
	}
}

// TestCancelInsideCallback: a subscriber that cancels itself from inside
// its callback must not disturb delivery of the same Set to the others, nor
// of later Sets.
func TestCancelInsideCallback(t *testing.T) {
	s, _ := newSvc()
	var a, b, c int
	var subA *Subscription
	subA = s.Subscribe(KeyBattery, nil, func(Key, Value) { a++; subA.Cancel() })
	s.Subscribe(KeyBattery, nil, func(Key, Value) { b++ })
	s.Subscribe(KeyBattery, nil, func(Key, Value) { c++ })
	s.SetNum(KeyBattery, 1)
	if a != 1 || b != 1 || c != 1 {
		t.Fatalf("after one Set: A=%d B=%d C=%d, want 1 1 1", a, b, c)
	}
	s.SetNum(KeyBattery, 2)
	if a != 1 || b != 2 || c != 2 {
		t.Errorf("after two Sets: A=%d B=%d C=%d, want 1 2 2", a, b, c)
	}
}

// TestCancelledDuringSetStillReceivesIt pins the documented contract: the
// subscriber list a Set delivers to is fixed when the Set starts.
func TestCancelledDuringSetStillReceivesIt(t *testing.T) {
	s, _ := newSvc()
	var b int
	var subB *Subscription
	s.Subscribe(KeyBattery, nil, func(Key, Value) { subB.Cancel() })
	subB = s.Subscribe(KeyBattery, nil, func(Key, Value) { b++ })
	s.SetNum(KeyBattery, 1)
	s.SetNum(KeyBattery, 2)
	if b != 1 {
		t.Errorf("B fired %d times, want 1 (the Set that cancelled it)", b)
	}
}

func TestHistoryBounded(t *testing.T) {
	s, now := newSvc() // histCap 4
	for i := 1; i <= 6; i++ {
		*now = time.Duration(i) * time.Second
		s.SetNum(KeyBattery, float64(i))
	}
	h := s.History(KeyBattery, 0)
	if len(h) != 4 {
		t.Fatalf("history len = %d, want 4", len(h))
	}
	if h[0].Value.Num != 3 || h[3].Value.Num != 6 {
		t.Errorf("history = %+v", h)
	}
	if h[0].At != 3*time.Second {
		t.Errorf("timestamp = %v", h[0].At)
	}
	h2 := s.History(KeyBattery, 2)
	if len(h2) != 2 || h2[0].Value.Num != 5 {
		t.Errorf("History(2) = %+v", h2)
	}
}

// TestPredicateFiresExactlyOncePerMatchingUpdate pins the delivery
// contract the adaptation loop depends on: one Set = at most one callback
// per subscription, matching updates only, no replays of history and no
// cross-key leakage — even with several live subscriptions on the same key.
func TestPredicateFiresExactlyOncePerMatchingUpdate(t *testing.T) {
	s, _ := newSvc()
	lowFired, allFired := 0, 0
	s.Subscribe(KeyBattery, func(v Value) bool { return v.Num < 0.2 }, func(Key, Value) { lowFired++ })
	s.Subscribe(KeyBattery, nil, func(Key, Value) { allFired++ })
	updates := []float64{0.9, 0.15, 0.15, 0.5, 0.1, 0.3}
	matching := 0
	for _, v := range updates {
		if v < 0.2 {
			matching++
		}
		s.SetNum(KeyBattery, v)
	}
	// Re-setting the same value is still one update; unrelated keys fire
	// nothing.
	s.SetNum(KeyBandwidth, 0.05)
	if lowFired != matching {
		t.Errorf("predicate fired %d times for %d matching updates", lowFired, matching)
	}
	if allFired != len(updates) {
		t.Errorf("nil predicate fired %d times for %d updates", allFired, len(updates))
	}
	// A subscriber added after N updates must not see them replayed.
	late := 0
	s.Subscribe(KeyBattery, nil, func(Key, Value) { late++ })
	if late != 0 {
		t.Errorf("late subscriber replayed %d historical updates", late)
	}
	s.SetNum(KeyBattery, 0.6)
	if late != 1 {
		t.Errorf("late subscriber fired %d times for one update", late)
	}
}

func TestHistoryIsCopy(t *testing.T) {
	s, _ := newSvc()
	s.SetNum(KeyBattery, 1)
	h := s.History(KeyBattery, 0)
	h[0].Value.Num = 99
	if got := s.History(KeyBattery, 0)[0].Value.Num; got != 1 {
		t.Errorf("history mutated through returned slice: %v", got)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Value{Num: 1.5}, "1.5"},
		{Value{Str: "adhoc"}, "adhoc"},
		{Value{Num: 2, Str: "x"}, "x(2)"},
		{Value{}, "0"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// A steady-state Set with no subscriber allocates nothing: a full history
// drops its oldest sample in place instead of growing a new array.
func TestSetFullHistoryAllocs(t *testing.T) {
	s, now := newSvc() // histCap 4
	for i := 0; i < 8; i++ {
		s.SetNum(KeyBattery, float64(i))
	}
	// One run is 64 Sets: AllocsPerRun rounds its mean down, and a history
	// that reallocates does so about once per histCap Sets.
	allocs := testing.AllocsPerRun(10, func() {
		for range 64 {
			*now += time.Second
			s.SetNum(KeyBattery, float64(*now))
		}
	})
	if allocs != 0 {
		t.Errorf("64 Sets on a full history allocate %v times, want 0", allocs)
	}
	h := s.History(KeyBattery, 0)
	if len(h) != 4 || h[3].At != *now || h[0].At != *now-3*time.Second {
		t.Errorf("history after the steady state = %+v", h)
	}
}

func TestDefaultHistCap(t *testing.T) {
	s := New(func() time.Duration { return 0 }, 0)
	for i := 0; i < 100; i++ {
		s.SetNum(KeyBattery, float64(i))
	}
	if got := len(s.History(KeyBattery, 0)); got != 64 {
		t.Errorf("default cap = %d, want 64", got)
	}
}
