package netsim

import (
	"testing"
	"time"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim(1)
	var got []int
	s.Schedule(3*time.Second, func() { got = append(got, 3) })
	s.Schedule(1*time.Second, func() { got = append(got, 1) })
	s.Schedule(2*time.Second, func() { got = append(got, 2) })
	s.RunUntilIdle(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", s.Now())
	}
}

func TestSimSameInstantFIFO(t *testing.T) {
	s := NewSim(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { got = append(got, i) })
	}
	s.RunUntilIdle(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events out of order: %v", got)
		}
	}
}

func TestSimRunUntil(t *testing.T) {
	s := NewSim(1)
	count := 0
	s.Schedule(1*time.Second, func() { count++ })
	s.Schedule(5*time.Second, func() { count++ })
	s.Run(2 * time.Second)
	if count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
	if s.Now() != 2*time.Second {
		t.Errorf("Now() = %v, want 2s", s.Now())
	}
	s.Run(10 * time.Second)
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
}

func TestSimNestedSchedule(t *testing.T) {
	s := NewSim(1)
	var at []time.Duration
	s.Schedule(time.Second, func() {
		at = append(at, s.Now())
		s.Schedule(time.Second, func() {
			at = append(at, s.Now())
		})
	})
	s.RunUntilIdle(0)
	if len(at) != 2 || at[0] != time.Second || at[1] != 2*time.Second {
		t.Errorf("fire times = %v", at)
	}
}

func TestSimRecurringGuard(t *testing.T) {
	s := NewSim(1)
	var rec func()
	rec = func() { s.Schedule(time.Millisecond, rec) }
	s.Schedule(0, rec)
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntilIdle did not panic on runaway schedule")
		}
	}()
	s.RunUntilIdle(1000)
}

func TestAfterCancel(t *testing.T) {
	s := NewSim(1)
	fired := false
	cancel := s.After(time.Second, func() { fired = true })
	cancel()
	s.RunUntilIdle(0)
	if fired {
		t.Error("cancelled After fired")
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() []float64 {
		s := NewSim(42)
		var out []float64
		for i := 0; i < 5; i++ {
			out = append(out, s.Rand().Float64())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different random streams")
		}
	}
}
