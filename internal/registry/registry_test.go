package registry

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"logmob/internal/lmu"
)

// unit builds a component of roughly the given payload size.
func unit(name, version string, payload int) *lmu.Unit {
	return &lmu.Unit{
		Manifest: lmu.Manifest{Name: name, Version: version, Kind: lmu.KindComponent},
		Code:     make([]byte, payload),
	}
}

func TestPutGet(t *testing.T) {
	r := New(0)
	u := unit("codec/ogg", "1.0", 100)
	if err := r.Put(u); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := r.Get("codec/ogg")
	if !ok {
		t.Fatal("Get miss")
	}
	if got.Manifest.Version != "1.0" {
		t.Errorf("Version = %q", got.Manifest.Version)
	}
	if _, ok := r.Get("codec/none"); ok {
		t.Error("Get hit on absent unit")
	}
	if got, want := r.Used(), int64(u.Size()); got != want {
		t.Errorf("Used = %d after one Put, want %d", got, want)
	}
}

// Put adopts and Get shares: the registry keeps the pointer it was given,
// as a new entry and as a same-version replacement, and a Put that fails
// adopts nothing, leaving the stored entry as it was.
func TestPutAdoptsUnit(t *testing.T) {
	r := New(0)
	u := unit("c", "1.0", 10)
	if err := r.Put(u); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Get("c"); got != u {
		t.Error("Get does not return the unit that was Put")
	}
	v := unit("c", "1.0", 20)
	if err := r.Put(v); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Get("c"); got != v {
		t.Error("Get does not return the same-version replacement that was Put")
	}

	small := New(int64(v.Size()))
	if err := small.Put(v); err != nil {
		t.Fatal(err)
	}
	used := small.Used()
	big := unit("c", "1.0", 400)
	if err := small.Put(big); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Put past the quota = %v, want ErrQuotaExceeded", err)
	}
	if got, _ := small.Get("c"); got != v || len(got.Code) != 20 {
		t.Error("a failed Put replaced the stored entry")
	}
	if small.Used() != used {
		t.Errorf("Used = %d after a failed Put, want %d", small.Used(), used)
	}
}

func TestNewestVersionWins(t *testing.T) {
	r := New(0)
	for _, v := range []string{"1.0", "1.10", "1.2"} {
		if err := r.Put(unit("c", v, 10)); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := r.Get("c")
	if !ok || got.Manifest.Version != "1.10" {
		t.Errorf("Get = %v, want 1.10 (numeric compare)", got.Manifest.Version)
	}
}

func TestGetAtLeast(t *testing.T) {
	r := New(0)
	if err := r.Put(unit("c", "1.0", 10)); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(unit("c", "2.0", 10)); err != nil {
		t.Fatal(err)
	}
	got, ok := r.GetAtLeast("c", "1.5")
	if !ok || got.Manifest.Version != "2.0" {
		t.Errorf("GetAtLeast(1.5) = %v, %v", got, ok)
	}
	if _, ok := r.GetAtLeast("c", "3.0"); ok {
		t.Error("GetAtLeast(3.0) should miss")
	}
}

func TestReplaceSameVersion(t *testing.T) {
	r := New(1000)
	if err := r.Put(unit("c", "1.0", 100)); err != nil {
		t.Fatal(err)
	}
	before := r.Used()
	if err := r.Put(unit("c", "1.0", 300)); err != nil {
		t.Fatal(err)
	}
	if r.Used() <= before {
		t.Errorf("Used = %d, want growth after replacing with larger unit", r.Used())
	}
	mans := r.List()
	if len(mans) != 1 {
		t.Fatalf("List has %d entries, want 1", len(mans))
	}
}

// A same-version replacement goes through the same fit-or-evict path as a
// new unit: the replaced entry's bytes count as freed, it keeps its pin, and
// a replacement that cannot fit is refused with the old entry untouched.
func TestReplaceSameVersionRespectsQuota(t *testing.T) {
	a, b := unit("a", "1.0", 400), unit("b", "1.0", 400)
	quota := int64(a.Size() + b.Size())
	bigA := unit("a", "1.0", 780)
	if int64(bigA.Size()) > quota || int64(bigA.Size()) <= quota-int64(b.Size()) {
		t.Fatalf("sizes: quota %d, b %d, big a %d — big a must fit alone but not beside b", quota, b.Size(), bigA.Size())
	}

	// fill stores a and b at 1.0 and pins one of them.
	fill := func(pinned string) *Registry {
		r := New(quota)
		for _, u := range []*lmu.Unit{a, b} {
			if err := r.Put(u); err != nil {
				t.Fatal(err)
			}
		}
		r.Pin(pinned, "1.0", true)
		return r
	}

	r := fill("a")
	if err := r.Put(bigA); err != nil {
		t.Fatalf("Put larger a: %v", err)
	}
	if r.Used() > quota {
		t.Errorf("Used = %d exceeds quota %d after replacement", r.Used(), quota)
	}
	if r.Has("b") {
		t.Error("b should have been evicted to fit the larger a")
	}
	if got, _ := r.Get("a"); got == nil || len(got.Code) != 780 {
		t.Error("replacement not stored")
	}
	// a is now the only entry, so only its pin keeps b from evicting it.
	if err := r.Put(b); !errors.Is(err, ErrQuotaExceeded) || !r.Has("a") {
		t.Errorf("Put b = %v, a stored %v: the replacement lost its pin", err, r.Has("a"))
	}

	// The other way round: b is pinned and a cannot grow past it.
	r = fill("b")
	used := r.Used()
	if err := r.Put(bigA); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Put larger a beside pinned b = %v, want ErrQuotaExceeded", err)
	}
	if r.Used() != used {
		t.Errorf("Used = %d after refused replacement, want %d", r.Used(), used)
	}
	if got, ok := r.Get("a"); !ok || len(got.Code) != 400 {
		t.Error("refused replacement disturbed the old entry")
	}
}

func TestQuotaEvictionLRU(t *testing.T) {
	var now time.Duration
	clock := func() time.Duration { now += time.Second; return now }
	quota := int64(3 * unitSize(100))
	r := New(quota, WithClock(clock), WithPolicy(LRU{}))
	for i := 0; i < 3; i++ {
		if err := r.Put(unit(fmt.Sprintf("c%d", i), "1.0", 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch c0 and c2 so c1 is least recently used.
	r.Get("c0")
	r.Get("c2")
	if err := r.Put(unit("c3", "1.0", 100)); err != nil {
		t.Fatalf("Put c3: %v", err)
	}
	if r.Has("c1") {
		t.Error("c1 should have been evicted (LRU)")
	}
	for _, want := range []string{"c0", "c2", "c3"} {
		if !r.Has(want) {
			t.Errorf("%s missing", want)
		}
	}
	if got := r.Evictions(); got != 1 {
		t.Errorf("Evictions = %d, want 1", got)
	}
	if got, want := r.Used(), quota; got != want {
		t.Errorf("Used = %d after evicting for c3, want %d", got, want)
	}
}

func TestQuotaEvictionLFU(t *testing.T) {
	var now time.Duration
	clock := func() time.Duration { now += time.Second; return now }
	r := New(3*unitSize(100), WithClock(clock), WithPolicy(LFU{}))
	for i := 0; i < 3; i++ {
		if err := r.Put(unit(fmt.Sprintf("c%d", i), "1.0", 100)); err != nil {
			t.Fatal(err)
		}
	}
	r.Get("c0")
	r.Get("c0")
	r.Get("c1")
	r.Get("c2")
	r.Get("c2") // c1 now least frequently used
	if err := r.Put(unit("c3", "1.0", 100)); err != nil {
		t.Fatal(err)
	}
	if r.Has("c1") {
		t.Error("c1 should have been evicted (LFU)")
	}
}

func TestQuotaEvictionSizeGreedy(t *testing.T) {
	small := unit("small", "1.0", 50)
	medium := unit("medium", "1.0", 100)
	large := unit("large", "1.0", 300)
	quota := int64(small.Size() + medium.Size() + large.Size())
	r := New(quota, WithPolicy(SizeGreedy{}))
	for _, u := range []*lmu.Unit{small, medium, large} {
		if err := r.Put(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Put(unit("new", "1.0", 200)); err != nil {
		t.Fatal(err)
	}
	if r.Has("large") {
		t.Error("large should have been evicted (size-greedy)")
	}
	if !r.Has("small") || !r.Has("medium") {
		t.Error("smaller entries should survive")
	}
}

// unitSize returns the packed size of a canonical test unit with the given
// payload.
func unitSize(payload int) int64 {
	return int64(unit("cX", "1.0", payload).Size())
}

func TestPinPreventsEviction(t *testing.T) {
	pinned := unit("pinned", "1.0", 100)
	other := unit("other", "1.0", 100)
	r := New(int64(pinned.Size() + other.Size()))
	if err := r.Put(pinned); err != nil {
		t.Fatal(err)
	}
	if !r.Pin("pinned", "1.0", true) {
		t.Fatal("Pin failed")
	}
	if err := r.Put(other); err != nil {
		t.Fatal(err)
	}
	// Now full. A new unit must evict "other", never "pinned".
	if err := r.Put(unit("new", "1.0", 100)); err != nil {
		t.Fatal(err)
	}
	if !r.Has("pinned") {
		t.Error("pinned unit was evicted")
	}
	if r.Has("other") {
		t.Error("unpinned unit should have been evicted")
	}
}

func TestAllPinnedRejects(t *testing.T) {
	r := New(unitSize(100))
	a := unit("a", "1.0", 100)
	if err := r.Put(a); err != nil {
		t.Fatal(err)
	}
	r.Pin("a", "1.0", true)
	err := r.Put(unit("b", "1.0", 100))
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Put = %v, want ErrQuotaExceeded", err)
	}
	if r.Has("b") || !r.Has("a") || r.Used() != int64(a.Size()) {
		t.Errorf("a rejected Put changed the store: has a %v, has b %v, used %d", r.Has("a"), r.Has("b"), r.Used())
	}
}

func TestUnitLargerThanQuota(t *testing.T) {
	r := New(10)
	if err := r.Put(unit("big", "1.0", 100)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Put = %v, want ErrQuotaExceeded", err)
	}
}

func TestRemove(t *testing.T) {
	r := New(0)
	if err := r.Put(unit("c", "1.0", 10)); err != nil {
		t.Fatal(err)
	}
	used := r.Used()
	if used == 0 {
		t.Fatal("Used = 0 after Put")
	}
	if !r.Remove("c", "1.0") {
		t.Fatal("Remove reported absent")
	}
	if r.Remove("c", "1.0") {
		t.Error("second Remove reported present")
	}
	if r.Used() != 0 {
		t.Errorf("Used = %d after Remove", r.Used())
	}
}

func TestPinAbsent(t *testing.T) {
	r := New(0)
	if r.Pin("ghost", "1.0", true) {
		t.Error("Pin on absent unit reported success")
	}
}

func TestList(t *testing.T) {
	r := New(0)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := r.Put(unit(name, "1.0", 10)); err != nil {
			t.Fatal(err)
		}
	}
	mans := r.List()
	if len(mans) != 3 {
		t.Fatalf("List len = %d", len(mans))
	}
	if mans[0].Name != "alpha" || mans[1].Name != "mid" || mans[2].Name != "zeta" {
		t.Errorf("List order = %v", []string{mans[0].Name, mans[1].Name, mans[2].Name})
	}
}

func TestMultipleVersionsCoexist(t *testing.T) {
	r := New(0)
	if err := r.Put(unit("c", "1.0", 10)); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(unit("c", "2.0", 10)); err != nil {
		t.Fatal(err)
	}
	if got := len(r.List()); got != 2 {
		t.Errorf("List len = %d, want 2 coexisting versions", got)
	}
	got, ok := r.GetAtLeast("c", "1.0")
	if !ok || got.Manifest.Version != "2.0" {
		t.Errorf("GetAtLeast returned %v", got.Manifest.Version)
	}
}

func TestEvictionDeterministic(t *testing.T) {
	// Two registries fed identically must evict identically.
	run := func() []string {
		var now time.Duration
		r := New(4*unitSize(50), WithClock(func() time.Duration { now += time.Millisecond; return now }))
		for i := 0; i < 12; i++ {
			name := fmt.Sprintf("c%d", i%6)
			_ = r.Put(unit(name, fmt.Sprintf("1.%d", i), 50))
			r.Get(fmt.Sprintf("c%d", (i*5)%6))
		}
		var names []string
		for _, m := range r.List() {
			names = append(names, m.Name+"@"+m.Version)
		}
		return names
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different survivor counts: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic eviction: %v vs %v", a, b)
		}
	}
}
