package vm

import "testing"

// fuzzProg is the fixed program FuzzSnapshotRestore restores snapshots
// against: globals, a nested call holding a local, a trapping host call, a
// host call with arguments and a division a restored stack can make fail.
var fuzzProg = MustAssemble(`
.globals 2
.entry main
main:
	push 31
	call inner
	gload 1
	add
	halt
inner:
	store 3
	host pause
	load 3
	gload 0
	div
	gstore 1
	load 3
	push 2
	host sum
	ret
`)

func fuzzHost() *HostTable {
	host := NewHostTable()
	host.Register(HostFunc{Name: "pause", Fn: func(*Machine, []int64) ([]int64, int64, error) { return nil, 1, nil }})
	host.Register(HostFunc{Name: "sum", Arity: 2, Fn: func(m *Machine, args []int64) ([]int64, int64, error) {
		return m.Ret1(args[0] + args[1]), 0, nil
	}})
	return host
}

// FuzzSnapshotRestore feeds arbitrary bytes to the two VM decoders a peer
// reaches: DecodeProgram (a unit's code) and RestoreInto (an agent's
// execution state, against fuzzProg). Neither may panic, and neither may a
// program that decodes, or a machine that restores, when it then runs on a
// small fuel budget: decoding is where foreign code is validated, so nothing
// that passes may put the interpreter in an undefined state. Seeds are
// fuzzProg's encoding with its snapshots before the first instruction, at
// the trap and after the halt — the round trips
// TestProgramEncodeDecodeRoundTrip and TestSnapshotPreservesFramesAndLocals
// check.
func FuzzSnapshotRestore(f *testing.F) {
	host := fuzzHost()
	m, err := New(fuzzProg, host, 1000)
	if err != nil {
		f.Fatal(err)
	}
	code := fuzzProg.Encode()
	f.Add(code, m.Snapshot()) // before the first instruction
	if err := m.Run(); err != nil || m.Status() != StatusTrapped {
		f.Fatalf("seed run: %v, status %v", err, m.Status())
	}
	f.Add(code, m.Snapshot()) // trapped inside inner with a local set
	_ = m.Run()
	f.Add(code, m.Snapshot()) // halted
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, code, snap []byte) {
		if p, err := DecodeProgram(code); err == nil {
			if pm, err := New(p, host, 256); err == nil {
				_ = pm.Run()
			}
		}
		// Restore into a machine that has already run, as a platform's
		// recycled machine would be.
		m, err := New(fuzzProg, host, 256)
		if err != nil {
			t.Fatal(err)
		}
		_ = m.Run()
		if err := m.RestoreInto(fuzzProg, host, 256, snap); err != nil {
			return
		}
		for i := 0; i < 4; i++ {
			if m.Run() != nil || m.Status() != StatusTrapped {
				break
			}
		}
	})
}
