package vm

import (
	"errors"
	"strings"
	"testing"
	"unsafe"
)

// runToHalt assembles src, runs entry with args and returns the final stack.
func runToHalt(t *testing.T, src, entry string, host *HostTable, args ...int64) []int64 {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	m, err := New(prog, host, 1_000_000)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.SetEntry(entry, args...); err != nil {
		t.Fatalf("SetEntry: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Status() != StatusHalted {
		t.Fatalf("Status = %v, want halted", m.Status())
	}
	return m.Stack()
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		name string
		body string
		want int64
	}{
		{"add", "push 2\npush 3\nadd", 5},
		{"sub", "push 2\npush 3\nsub", -1},
		{"mul", "push 4\npush 3\nmul", 12},
		{"div", "push 7\npush 2\ndiv", 3},
		{"div-negative", "push -7\npush 2\ndiv", -3},
		{"mod", "push 7\npush 3\nmod", 1},
		{"neg", "push 5\nneg", -5},
		{"and", "push 6\npush 3\nand", 2},
		{"or", "push 6\npush 3\nor", 7},
		{"xor", "push 6\npush 3\nxor", 5},
		{"not", "push 0\nnot", -1},
		{"shl", "push 1\npush 4\nshl", 16},
		{"shr", "push 16\npush 3\nshr", 2},
		{"eq-true", "push 3\npush 3\neq", 1},
		{"eq-false", "push 3\npush 4\neq", 0},
		{"ne", "push 3\npush 4\nne", 1},
		{"lt", "push 3\npush 4\nlt", 1},
		{"gt", "push 3\npush 4\ngt", 0},
		{"le", "push 4\npush 4\nle", 1},
		{"ge", "push 3\npush 4\nge", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := ".entry main\nmain:\n" + c.body + "\nhalt\n"
			stack := runToHalt(t, src, "main", nil)
			if len(stack) != 1 || stack[0] != c.want {
				t.Errorf("stack = %v, want [%d]", stack, c.want)
			}
		})
	}
}

func TestStackOps(t *testing.T) {
	src := `
.entry main
main:
	push 1
	push 2
	dup      ; 1 2 2
	swap     ; 1 2 2 (swap of equal values)
	over     ; 1 2 2 2
	pop      ; 1 2 2
	add      ; 1 4
	halt
`
	stack := runToHalt(t, src, "main", nil)
	if len(stack) != 2 || stack[0] != 1 || stack[1] != 4 {
		t.Errorf("stack = %v, want [1 4]", stack)
	}
}

func TestLoopSum(t *testing.T) {
	// Sum 1..10 using a local accumulator.
	src := `
.entry main
main:
	push 10
	store 0     ; i = 10
	push 0
	store 1     ; acc = 0
loop:
	load 0
	jz done
	load 1
	load 0
	add
	store 1     ; acc += i
	load 0
	push 1
	sub
	store 0     ; i--
	jmp loop
done:
	load 1
	halt
`
	stack := runToHalt(t, src, "main", nil)
	if len(stack) != 1 || stack[0] != 55 {
		t.Errorf("stack = %v, want [55]", stack)
	}
}

func TestCallRet(t *testing.T) {
	// square(x) via a call; argument passed on the stack.
	src := `
.entry main
main:
	push 7
	call square
	halt
square:
	dup
	mul
	ret
`
	stack := runToHalt(t, src, "main", nil)
	if len(stack) != 1 || stack[0] != 49 {
		t.Errorf("stack = %v, want [49]", stack)
	}
}

func TestRecursiveFactorial(t *testing.T) {
	src := `
.entry main
main:
	push 10
	call fact
	halt
fact:            ; n on stack
	dup
	push 2
	lt
	jnz base     ; n < 2 -> return n (n is 1 or 0... treat as 1)
	dup
	push 1
	sub
	call fact    ; n, fact(n-1)
	mul
	ret
base:
	pop
	push 1
	ret
`
	stack := runToHalt(t, src, "main", nil)
	if len(stack) != 1 || stack[0] != 3628800 {
		t.Errorf("stack = %v, want [3628800]", stack)
	}
}

func TestLocalsPerFrame(t *testing.T) {
	// A callee's stores must not clobber the caller's locals.
	src := `
.entry main
main:
	push 11
	store 0
	call clobber
	load 0
	halt
clobber:
	push 99
	store 0
	ret
`
	stack := runToHalt(t, src, "main", nil)
	if len(stack) != 1 || stack[0] != 11 {
		t.Errorf("stack = %v, want [11]: callee clobbered caller locals", stack)
	}
}

func TestGlobals(t *testing.T) {
	src := `
.globals 2
.entry main
main:
	push 5
	gstore 0
	push 6
	gstore 1
	gload 0
	gload 1
	add
	halt
`
	stack := runToHalt(t, src, "main", nil)
	if len(stack) != 1 || stack[0] != 11 {
		t.Errorf("stack = %v, want [11]", stack)
	}
}

func TestEntryArgs(t *testing.T) {
	src := ".entry main\nmain:\nadd\nhalt\n"
	stack := runToHalt(t, src, "main", nil, 20, 22)
	if len(stack) != 1 || stack[0] != 42 {
		t.Errorf("stack = %v, want [42]", stack)
	}
}

func TestHostCall(t *testing.T) {
	host := NewHostTable()
	var logged []int64
	host.Register(HostFunc{
		Name: "log", Arity: 1,
		Fn: func(m *Machine, args []int64) ([]int64, int64, error) {
			logged = append(logged, args[0])
			return nil, 0, nil
		},
	})
	host.Register(HostFunc{
		Name: "add3", Arity: 3,
		Fn: func(m *Machine, args []int64) ([]int64, int64, error) {
			return []int64{args[0] + args[1] + args[2]}, 0, nil
		},
	})
	src := `
.entry main
main:
	push 1
	push 2
	push 3
	host add3
	dup
	host log
	halt
`
	stack := runToHalt(t, src, "main", host)
	if len(stack) != 1 || stack[0] != 6 {
		t.Errorf("stack = %v, want [6]", stack)
	}
	if len(logged) != 1 || logged[0] != 6 {
		t.Errorf("logged = %v", logged)
	}
}

func TestHostCapabilityDenied(t *testing.T) {
	prog := MustAssemble(".entry main\nmain:\nhost forbidden\nhalt\n")
	if _, err := New(prog, NewHostTable(), 1000); err == nil {
		t.Fatal("linking a missing capability should fail")
	}
	if _, err := New(prog, nil, 1000); err == nil {
		t.Fatal("linking with no host table should fail")
	}
}

func TestTrapAndResume(t *testing.T) {
	host := NewHostTable()
	host.Register(HostFunc{
		Name: "yield", Arity: 0,
		Fn: func(m *Machine, args []int64) ([]int64, int64, error) {
			return []int64{100}, 7, nil // push 100, trap with code 7
		},
	})
	src := `
.entry main
main:
	host yield
	push 1
	add
	halt
`
	prog := MustAssemble(src)
	m, err := New(prog, host, 1000)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.SetEntry("main"); err != nil {
		t.Fatalf("SetEntry: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Status() != StatusTrapped || m.TrapCode() != 7 {
		t.Fatalf("status=%v trap=%d, want trapped/7", m.Status(), m.TrapCode())
	}
	// Resume: execution continues after the host call.
	if err := m.Run(); err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	if m.Status() != StatusHalted {
		t.Fatalf("Status = %v after resume", m.Status())
	}
	stack := m.Stack()
	if len(stack) != 1 || stack[0] != 101 {
		t.Errorf("stack = %v, want [101]", stack)
	}
}

func TestSnapshotRestoreAcrossTrap(t *testing.T) {
	host := NewHostTable()
	host.Register(HostFunc{
		Name: "migrate", Arity: 0,
		Fn: func(m *Machine, args []int64) ([]int64, int64, error) {
			return nil, 1, nil
		},
	})
	// Count down from 5, "migrating" on every iteration.
	src := `
.globals 1
.entry main
main:
	push 5
	gstore 0
loop:
	gload 0
	jz done
	host migrate
	gload 0
	push 1
	sub
	gstore 0
	jmp loop
done:
	gload 0
	halt
`
	prog := MustAssemble(src)
	m, err := New(prog, host, 1000)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.SetEntry("main"); err != nil {
		t.Fatalf("SetEntry: %v", err)
	}
	hops := 0
	for {
		if err := m.Run(); err != nil {
			t.Fatalf("Run (hop %d): %v", hops, err)
		}
		if m.Status() == StatusHalted {
			break
		}
		if m.Status() != StatusTrapped {
			t.Fatalf("Status = %v", m.Status())
		}
		hops++
		// Simulate migration: snapshot, destroy, restore "elsewhere".
		snap := m.Snapshot()
		m, err = Restore(prog, host, 1000, snap)
		if err != nil {
			t.Fatalf("Restore (hop %d): %v", hops, err)
		}
	}
	if hops != 5 {
		t.Errorf("hops = %d, want 5", hops)
	}
	stack := m.Stack()
	if len(stack) != 1 || stack[0] != 0 {
		t.Errorf("stack = %v, want [0]", stack)
	}
}

func TestSnapshotPreservesFramesAndLocals(t *testing.T) {
	host := NewHostTable()
	host.Register(HostFunc{
		Name: "pause", Arity: 0,
		Fn: func(m *Machine, args []int64) ([]int64, int64, error) { return nil, 1, nil },
	})
	// Pause inside a nested call that holds a distinctive local.
	src := `
.entry main
main:
	push 31
	call inner
	halt
inner:
	store 3       ; local 3 = 31
	host pause
	load 3
	push 2
	mul
	ret
`
	prog := MustAssemble(src)
	m, err := New(prog, host, 1000)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.SetEntry("main"); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Status() != StatusTrapped {
		t.Fatalf("Status = %v", m.Status())
	}
	m2, err := Restore(prog, host, 1000, m.Snapshot())
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := m2.Run(); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	stack := m2.Stack()
	if len(stack) != 1 || stack[0] != 62 {
		t.Errorf("stack = %v, want [62]", stack)
	}
}

func TestFuelExhaustionAndRefuel(t *testing.T) {
	src := `
.entry main
main:
loop:
	jmp loop
`
	prog := MustAssemble(src)
	m, err := New(prog, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry("main"); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); !errors.Is(err, ErrOutOfFuel) {
		t.Fatalf("Run = %v, want ErrOutOfFuel", err)
	}
	if m.Status() != StatusOutOfFuel {
		t.Fatalf("Status = %v", m.Status())
	}
	// Refuel and keep spinning; still bounded.
	m.Refuel(50)
	if err := m.Run(); !errors.Is(err, ErrOutOfFuel) {
		t.Fatalf("second Run = %v, want ErrOutOfFuel", err)
	}
	if m.Steps != 150 {
		t.Errorf("Steps = %d, want 150", m.Steps)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string
	}{
		{"div-zero", ".entry main\nmain:\npush 1\npush 0\ndiv\nhalt", "division by zero"},
		{"mod-zero", ".entry main\nmain:\npush 1\npush 0\nmod\nhalt", "modulo by zero"},
		{"underflow", ".entry main\nmain:\nadd\nhalt", "underflow"},
		{"pop-empty", ".entry main\nmain:\npop\nhalt", "underflow"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := MustAssemble(c.src)
			m, err := New(prog, nil, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SetEntry("main"); err != nil {
				t.Fatal(err)
			}
			err = m.Run()
			if err == nil || !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("Run = %v, want error containing %q", err, c.frag)
			}
			var rte *RuntimeError
			if !errors.As(err, &rte) {
				t.Fatalf("error type = %T", err)
			}
			if m.Status() != StatusFailed {
				t.Errorf("Status = %v, want failed", m.Status())
			}
			// A failed machine stays failed.
			if err2 := m.Run(); err2 == nil {
				t.Error("Run on failed machine should return the error")
			}
		})
	}
}

func TestCallDepthLimit(t *testing.T) {
	src := ".entry main\nmain:\ncall main\n"
	prog := MustAssemble(src)
	m, err := New(prog, nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry("main"); err != nil {
		t.Fatal(err)
	}
	err = m.Run()
	if err == nil || !strings.Contains(err.Error(), "call depth") {
		t.Fatalf("Run = %v, want call depth error", err)
	}
}

// TestRecycledMachineDropsHostileGrowth pins what a pooled machine retains
// after hostile runs: one that overflows the stack and one that recurses to
// MaxFrames, each within a host's default fuel of 10^6. A host keeps such a
// machine for its life (core's eval pool, agent's activation pool), so a
// Reinit or RestoreInto that kept their growth would pin about 1.2 MB.
func TestRecycledMachineDropsHostileGrowth(t *testing.T) {
	const fuel = 1_000_000
	overflow := MustAssemble(".entry main\nmain:\npush 1\njmp main\n")
	recurse := MustAssemble(".entry main\nmain:\ncall main\n")
	tiny := MustAssemble(".entry main\nmain:\npush 1\nhalt\n")
	var m Machine
	hostile := func() {
		t.Helper()
		for _, p := range []*Program{overflow, recurse} {
			if err := m.Reinit(p, nil, fuel); err != nil {
				t.Fatal(err)
			}
			if err := m.SetEntry("main"); err != nil {
				t.Fatal(err)
			}
			if err := m.Run(); err == nil {
				t.Fatal("a hostile run finished without error")
			}
		}
	}
	const bound = retainStack*8 + retainFrames*int(unsafe.Sizeof(frame{}))
	retained := func() int { return cap(m.stack)*8 + cap(m.frames)*int(unsafe.Sizeof(frame{})) }

	hostile()
	if err := m.Reinit(tiny, nil, fuel); err != nil {
		t.Fatal(err)
	}
	if got := retained(); got > bound {
		t.Errorf("after Reinit the machine keeps %d B of stack and frames, want at most %d", got, bound)
	}
	if err := m.SetEntry("main"); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()

	hostile()
	if err := m.RestoreInto(tiny, nil, fuel, snap); err != nil {
		t.Fatal(err)
	}
	if got := retained(); got > bound {
		t.Errorf("after RestoreInto the machine keeps %d B of stack and frames, want at most %d", got, bound)
	}
	if st := m.Stack(); len(st) != 1 || st[0] != 1 {
		t.Errorf("restored stack = %v, want [1]", st)
	}
}

func TestImplicitHaltOnEntryRet(t *testing.T) {
	// A ret from the entry frame halts the machine.
	src := ".entry main\nmain:\npush 9\nret\n"
	prog := MustAssemble(src)
	m, err := New(prog, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry("main"); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Status() != StatusHalted {
		t.Fatalf("Status = %v", m.Status())
	}
	if stack := m.Stack(); len(stack) != 1 || stack[0] != 9 {
		t.Errorf("stack = %v", stack)
	}
}

func TestProgramEncodeDecodeRoundTrip(t *testing.T) {
	src := `
.globals 3
.entry main
.entry aux
main:
	push 42
	host cap_a
	call fn
	halt
aux:
	host cap_b
	halt
fn:
	push -7
	gstore 2
	ret
`
	prog := MustAssemble(src)
	data := prog.Encode()
	got, err := DecodeProgram(data)
	if err != nil {
		t.Fatalf("DecodeProgram: %v", err)
	}
	if len(got.Code) != len(prog.Code) {
		t.Fatalf("code len = %d, want %d", len(got.Code), len(prog.Code))
	}
	for i := range prog.Code {
		if got.Code[i] != prog.Code[i] {
			t.Errorf("instr %d = %+v, want %+v", i, got.Code[i], prog.Code[i])
		}
	}
	if got.Globals != 3 {
		t.Errorf("Globals = %d", got.Globals)
	}
	if got.Entries["main"] != prog.Entries["main"] || got.Entries["aux"] != prog.Entries["aux"] {
		t.Errorf("Entries = %v, want %v", got.Entries, prog.Entries)
	}
	if len(got.Imports) != 2 || got.Imports[0] != "cap_a" || got.Imports[1] != "cap_b" {
		t.Errorf("Imports = %v", got.Imports)
	}
	// Deterministic encoding.
	if string(prog.Encode()) != string(data) {
		t.Error("Encode is not deterministic")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	prog := MustAssemble(".entry main\nmain:\npush 1\nhalt\n")
	good := prog.Encode()
	// Truncations at every length must error, never panic.
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeProgram(good[:cut]); err == nil {
			t.Errorf("cut=%d: expected decode error", cut)
		}
	}
	// Corrupt every byte.
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0xFF
		p, err := DecodeProgram(bad)
		if err == nil {
			// A mutated program that still decodes must at least validate.
			if verr := p.Validate(); verr != nil {
				t.Errorf("byte %d: decoded program fails validation: %v", i, verr)
			}
		}
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		prog Program
	}{
		{"jump-out-of-range", Program{Code: []Instr{{Op: OpJmp, Arg: 5}}}},
		{"negative-jump", Program{Code: []Instr{{Op: OpJz, Arg: -1}}}},
		{"host-no-imports", Program{Code: []Instr{{Op: OpHost, Arg: 0}}}},
		{"global-out-of-range", Program{Code: []Instr{{Op: OpGLoad, Arg: 0}}}},
		{"local-out-of-range", Program{Code: []Instr{{Op: OpLoad, Arg: MaxLocals}}}},
		{"entry-out-of-range", Program{Code: []Instr{{Op: OpHalt}}, Entries: map[string]int{"x": 9}}},
		{"unnamed-entry-out-of-range", Program{Code: []Instr{{Op: OpHalt}}, Entries: map[string]int{"": 9}}},
		{"too-many-globals", Program{Globals: MaxGlobals + 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.prog.Validate(); err == nil {
				t.Error("Validate accepted a bad program")
			}
		})
	}
}

// With several entries out of range, Validate names the first by name on
// every call.
func TestValidateNamesFirstBadEntry(t *testing.T) {
	const want = `vm: entry "a" at 7 out of range`
	for i := 0; i < 50; i++ {
		p := Program{Code: []Instr{{Op: OpHalt}}, Entries: map[string]int{"c": 9, "a": 7, "b": 8, "ok": 0}}
		if err := p.Validate(); err == nil || err.Error() != want {
			t.Fatalf("call %d: Validate = %v, want %s", i, err, want)
		}
	}
}

func TestSnapshotRestoreRejectsWrongProgram(t *testing.T) {
	progA := MustAssemble(".globals 2\n.entry main\nmain:\nhalt\n")
	progB := MustAssemble(".globals 5\n.entry main\nmain:\nhalt\n")
	m, err := New(progA, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if _, err := Restore(progB, nil, 10, snap); err == nil {
		t.Fatal("Restore with mismatched globals should fail")
	}
}

func TestSnapshotRestoreRejectsCorrupt(t *testing.T) {
	prog := MustAssemble(".entry main\nmain:\npush 3\nhalt\n")
	m, err := New(prog, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	for cut := 0; cut < len(snap); cut++ {
		if _, err := Restore(prog, nil, 10, snap[:cut]); err == nil {
			t.Errorf("cut=%d: expected restore error", cut)
		}
	}
}

func TestSetEntryUnknown(t *testing.T) {
	prog := MustAssemble(".entry main\nmain:\nhalt\n")
	m, err := New(prog, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry("missing"); err == nil {
		t.Fatal("SetEntry(missing) should fail")
	}
}

func TestMachineAccessors(t *testing.T) {
	prog := MustAssemble(".entry main\nmain:\nhalt\n")
	m, err := New(prog, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	m.Push(5)
	v, err := m.Pop()
	if err != nil || v != 5 {
		t.Errorf("Pop = %d, %v", v, err)
	}
	if _, err := m.Pop(); err == nil {
		t.Error("Pop on empty stack should fail")
	}
}
