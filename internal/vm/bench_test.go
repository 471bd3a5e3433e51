package vm

import (
	"testing"
)

// BenchmarkVMDispatch measures raw interpreter throughput.
func BenchmarkVMDispatch(b *testing.B) {
	prog := MustAssemble(`
.entry main
main:
	store 0
loop:
	load 0
	jz done
	load 0
	push 1
	sub
	store 0
	jmp loop
done:
	halt
`)
	b.ReportAllocs()
	var steps int64
	for i := 0; i < b.N; i++ {
		m, err := New(prog, nil, 1<<40)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.SetEntry("main", 1000); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		steps = m.Steps
	}
	b.ReportMetric(float64(steps), "steps/run")
}

// BenchmarkVMSnapshotRestore measures the strong-mobility primitive.
func BenchmarkVMSnapshotRestore(b *testing.B) {
	prog := MustAssemble(`
.globals 8
.entry main
main:
	push 11
	call inner
	halt
inner:
	store 5
	push 99
	gstore 3
	push 1000000
	host pause
	ret
`)
	host := NewHostTable()
	host.Register(HostFunc{Name: "pause", Arity: 1,
		Fn: func(*Machine, []int64) ([]int64, int64, error) { return nil, 1, nil }})
	m, err := New(prog, host, 1000)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.SetEntry("main"); err != nil {
		b.Fatal(err)
	}
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := m.Snapshot()
		if _, err := Restore(prog, host, 1000, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// evalLoop sums 100..1 in a loop: the shape of a REV evaluation.
var evalLoop = MustAssemble(`
.entry main
main:
	store 0
	push 0
loop:
	load 0
	jz done
	load 0
	add
	load 0
	push 1
	sub
	store 0
	jmp loop
done:
	halt
`)

// evalOnce runs one REV-style evaluation the way a serving host runs it:
// reinitialise a reused Machine for an already-assembled program, enter main
// with an argument and run to halt. Reinit instead of New is the
// scratch-reuse path core takes for every repeat Eval of a cached program.
func evalOnce(m *Machine) error {
	if err := m.Reinit(evalLoop, nil, 1<<20); err != nil {
		return err
	}
	if err := m.SetEntry("main", 100); err != nil {
		return err
	}
	return m.Run()
}

// BenchmarkVMEval measures one warm evaluation (see evalOnce).
func BenchmarkVMEval(b *testing.B) {
	m, err := New(evalLoop, nil, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := evalOnce(m); err != nil {
			b.Fatal(err)
		}
	}
}

// TestVMEvalAllocs pins PR 6's claim: a warm evaluation on a reused Machine
// allocates nothing.
func TestVMEvalAllocs(t *testing.T) {
	m, err := New(evalLoop, nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := evalOnce(m); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if err := evalOnce(m); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("a warm evaluation allocates %v times, want 0", got)
	}
}
