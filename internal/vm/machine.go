package vm

import (
	"errors"
	"fmt"

	"logmob/internal/wire"
)

// Machine limits. These bound memory for foreign code.
const (
	// MaxStack is the maximum operand stack depth.
	MaxStack = 64 << 10
	// MaxFrames is the maximum call depth.
	MaxFrames = 1 << 10
	// MaxLocals is the number of local slots per frame.
	MaxLocals = 64
	// MaxGlobals is the largest global array a program may request.
	MaxGlobals = 4 << 10
)

// What a recycled machine keeps of the stack and frames its earlier runs
// grew. Reinit (and so RestoreInto) drops a buffer whose capacity is above
// these, so one hostile run, a stack overflow or recursion to MaxFrames, both
// within a host's default fuel, does not leave about 1.2 MB pinned in a
// host's machine pool for the host's life. Ordinary programs stay well below
// both, so a warm machine still reinitialises without allocating.
const (
	retainStack  = 1 << 10 // operand slots, 8 KiB
	retainFrames = 16      // frames of 520 B each
)

// Status is the run state of a Machine after Run returns.
type Status uint8

// Machine statuses.
const (
	// StatusReady means the machine has not finished: it was created or
	// restored and can Run.
	StatusReady Status = iota + 1
	// StatusHalted means the program executed OpHalt or returned from its
	// entry frame.
	StatusHalted
	// StatusTrapped means a host function suspended execution (e.g. an
	// agent migration). The machine can be snapshotted and resumed.
	StatusTrapped
	// StatusOutOfFuel means the fuel budget was exhausted. The machine can
	// be refuelled and resumed.
	StatusOutOfFuel
	// StatusFailed means a runtime error occurred; the machine is dead.
	StatusFailed
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case StatusReady:
		return "ready"
	case StatusHalted:
		return "halted"
	case StatusTrapped:
		return "trapped"
	case StatusOutOfFuel:
		return "out-of-fuel"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// RuntimeError describes a fault raised while executing a program.
type RuntimeError struct {
	PC  int
	Op  Op
	Msg string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("vm: runtime error at pc=%d (%s): %s", e.PC, e.Op, e.Msg)
}

// ErrOutOfFuel is returned by Run when the fuel budget is exhausted.
var ErrOutOfFuel = errors.New("vm: out of fuel")

// HostFunc is a function a host exposes to programs. Args are popped from
// the stack (last argument on top); results are pushed in order. Setting
// trap suspends the machine with StatusTrapped after the results are pushed
// and the pc advanced, so a snapshot taken then resumes cleanly after the
// call.
type HostFunc struct {
	Name  string
	Arity int
	// Fn executes the call. trapCode != 0 requests a trap.
	Fn func(m *Machine, args []int64) (results []int64, trapCode int64, err error)
}

// HostTable links import names to host functions, granting exactly the
// capabilities a host wants foreign code to have. A table is built once,
// never mutated after the first machine links it, and shared by every
// execution it serves; its functions reach per-execution state through
// Machine.Ctx.
type HostTable struct {
	funcs map[string]HostFunc
}

// NewHostTable returns an empty table.
func NewHostTable() *HostTable {
	return &HostTable{funcs: make(map[string]HostFunc)}
}

// Register adds or replaces a host function by name.
func (t *HostTable) Register(f HostFunc) {
	t.funcs[f.Name] = f
}

// Lookup returns the function registered under name.
func (t *HostTable) Lookup(name string) (HostFunc, bool) {
	f, ok := t.funcs[name]
	return f, ok
}

// frame is one call activation. Locals are stored inline so that pushing a
// frame costs a slice append rather than a heap allocation.
type frame struct {
	retPC  int
	locals [MaxLocals]int64
}

// Machine executes a Program. It is single-goroutine; create one per
// execution, or recycle one with Reinit / RestoreInto.
type Machine struct {
	prog   *Program
	host   *HostTable
	linked []HostFunc // resolved imports, same index as prog.Imports

	pc      int
	stack   []int64
	frames  []frame
	globals []int64
	argbuf  []int64  // scratch for OpHost argument passing; valid only during a call
	resbuf  [2]int64 // scratch for Ret1/Ret2 host-call results
	fuel    int64
	status  Status
	trap    int64
	runErr  error

	// Ctx is an arbitrary host-owned execution context. Host functions
	// registered in a capability table shared across executions can reach
	// per-execution state through Ctx instead of capturing it in
	// per-execution closures.
	Ctx any

	// Steps counts executed instructions across all Run calls.
	Steps int64
}

// New creates a machine for prog with the given host capability table and
// fuel budget. It fails if the program's validation fails or an import
// cannot be linked.
func New(prog *Program, host *HostTable, fuel int64) (*Machine, error) {
	m := &Machine{}
	if err := m.Reinit(prog, host, fuel); err != nil {
		return nil, err
	}
	return m, nil
}

// Reinit resets m in place to run prog from a clean state, reusing the
// machine's existing stack, frame, global and link storage up to the
// retention bounds. It is equivalent to New but allocation-free once the
// machine has warmed up, which lets hosts that evaluate many short programs
// keep a machine pool.
func (m *Machine) Reinit(prog *Program, host *HostTable, fuel int64) error {
	if err := prog.Validate(); err != nil {
		return err
	}
	m.prog = prog
	m.host = host
	m.pc = 0
	m.stack = m.stack[:0]
	if cap(m.stack) > retainStack {
		m.stack = nil
	}
	m.fuel = fuel
	m.status = StatusReady
	m.trap = 0
	m.runErr = nil
	m.Ctx = nil
	m.Steps = 0
	if cap(m.globals) >= prog.Globals {
		m.globals = m.globals[:prog.Globals]
		for i := range m.globals {
			m.globals[i] = 0
		}
	} else {
		m.globals = make([]int64, prog.Globals)
	}
	if err := m.link(); err != nil {
		return err
	}
	if cap(m.frames) > retainFrames {
		m.frames = nil
	}
	m.frames = append(m.frames[:0], frame{retPC: -1})
	return nil
}

// link resolves the program's host imports against the capability table.
func (m *Machine) link() error {
	n := len(m.prog.Imports)
	if cap(m.linked) >= n {
		m.linked = m.linked[:n]
	} else {
		m.linked = make([]HostFunc, n)
	}
	for i, name := range m.prog.Imports {
		if m.host == nil {
			return fmt.Errorf("vm: program imports %q but no host table provided", name)
		}
		f, ok := m.host.Lookup(name)
		if !ok {
			return fmt.Errorf("vm: host capability %q not granted", name)
		}
		m.linked[i] = f
	}
	return nil
}

// SetEntry positions the machine at a named entry point with the given
// arguments pushed onto the stack.
func (m *Machine) SetEntry(name string, args ...int64) error {
	addr, ok := m.prog.Entries[name]
	if !ok {
		return fmt.Errorf("vm: no entry point %q", name)
	}
	m.pc = addr
	m.stack = append(m.stack[:0], args...)
	m.status = StatusReady
	return nil
}

// Status returns the machine's run state.
func (m *Machine) Status() Status { return m.status }

// TrapCode returns the code of the last trap; meaningful only when Status is
// StatusTrapped.
func (m *Machine) TrapCode() int64 { return m.trap }

// Fuel returns the remaining fuel.
func (m *Machine) Fuel() int64 { return m.fuel }

// Refuel adds fuel and, if the machine stopped for fuel, makes it runnable.
func (m *Machine) Refuel(fuel int64) {
	m.fuel += fuel
	if m.status == StatusOutOfFuel {
		m.status = StatusReady
	}
}

// Stack returns a copy of the operand stack, bottom first.
func (m *Machine) Stack() []int64 {
	out := make([]int64, len(m.stack))
	copy(out, m.stack)
	return out
}

// Pop removes and returns the top of stack. It is intended for hosts
// collecting results after a halt.
func (m *Machine) Pop() (int64, error) {
	if len(m.stack) == 0 {
		return 0, errors.New("vm: pop on empty stack")
	}
	v := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return v, nil
}

// Push places v on the operand stack. Intended for hosts resuming a trapped
// machine that expects a value.
func (m *Machine) Push(v int64) {
	m.stack = append(m.stack, v)
}

// Ret1 formats a single host-call result without allocating. The returned
// slice aliases machine scratch and is only valid until Run copies it onto
// the operand stack, i.e. it must be returned directly from a HostFunc.
func (m *Machine) Ret1(v int64) []int64 {
	m.resbuf[0] = v
	return m.resbuf[:1]
}

// Ret2 is Ret1 for two results.
func (m *Machine) Ret2(a, b int64) []int64 {
	m.resbuf[0], m.resbuf[1] = a, b
	return m.resbuf[:2]
}

func (m *Machine) fail(op Op, format string, args ...any) error {
	err := &RuntimeError{PC: m.pc, Op: op, Msg: fmt.Sprintf(format, args...)}
	m.status = StatusFailed
	m.runErr = err
	return err
}

// Run executes until halt, trap, fuel exhaustion or error. On fuel
// exhaustion it returns ErrOutOfFuel and the machine may be refuelled and
// run again; on a trap it returns nil with Status()==StatusTrapped.
func (m *Machine) Run() error {
	switch m.status {
	case StatusReady, StatusTrapped:
		// runnable
	case StatusOutOfFuel:
		return ErrOutOfFuel
	case StatusFailed:
		return m.runErr
	case StatusHalted:
		return nil
	}
	m.status = StatusReady
	code := m.prog.Code
	for {
		if m.fuel <= 0 {
			m.status = StatusOutOfFuel
			return ErrOutOfFuel
		}
		if m.pc < 0 || m.pc >= len(code) {
			return m.fail(OpNop, "pc %d out of range", m.pc)
		}
		in := code[m.pc]
		m.fuel--
		m.Steps++
		switch in.Op {
		case OpNop:
		case OpPush:
			if len(m.stack) >= MaxStack {
				return m.fail(in.Op, "stack overflow")
			}
			m.stack = append(m.stack, in.Arg)
		case OpPop:
			if _, err := m.pop(in.Op); err != nil {
				return err
			}
		case OpDup:
			if len(m.stack) == 0 {
				return m.fail(in.Op, "stack underflow")
			}
			if len(m.stack) >= MaxStack {
				return m.fail(in.Op, "stack overflow")
			}
			m.stack = append(m.stack, m.stack[len(m.stack)-1])
		case OpSwap:
			if len(m.stack) < 2 {
				return m.fail(in.Op, "stack underflow")
			}
			n := len(m.stack)
			m.stack[n-1], m.stack[n-2] = m.stack[n-2], m.stack[n-1]
		case OpOver:
			if len(m.stack) < 2 {
				return m.fail(in.Op, "stack underflow")
			}
			if len(m.stack) >= MaxStack {
				return m.fail(in.Op, "stack overflow")
			}
			m.stack = append(m.stack, m.stack[len(m.stack)-2])
		case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr,
			OpEq, OpNe, OpLt, OpGt, OpLe, OpGe:
			b, err := m.pop(in.Op)
			if err != nil {
				return err
			}
			a, err := m.pop(in.Op)
			if err != nil {
				return err
			}
			v, err := m.binop(in.Op, a, b)
			if err != nil {
				return err
			}
			m.stack = append(m.stack, v)
		case OpNeg:
			a, err := m.pop(in.Op)
			if err != nil {
				return err
			}
			m.stack = append(m.stack, -a)
		case OpNot:
			a, err := m.pop(in.Op)
			if err != nil {
				return err
			}
			m.stack = append(m.stack, ^a)
		case OpJmp:
			m.pc = int(in.Arg)
			continue
		case OpJz, OpJnz:
			v, err := m.pop(in.Op)
			if err != nil {
				return err
			}
			if (in.Op == OpJz && v == 0) || (in.Op == OpJnz && v != 0) {
				m.pc = int(in.Arg)
				continue
			}
		case OpCall:
			if len(m.frames) >= MaxFrames {
				return m.fail(in.Op, "call depth exceeds %d", MaxFrames)
			}
			m.frames = append(m.frames, frame{retPC: m.pc + 1})
			m.pc = int(in.Arg)
			continue
		case OpRet:
			top := m.frames[len(m.frames)-1]
			m.frames = m.frames[:len(m.frames)-1]
			if len(m.frames) == 0 || top.retPC < 0 {
				m.status = StatusHalted
				return nil
			}
			m.pc = top.retPC
			continue
		case OpLoad:
			f := &m.frames[len(m.frames)-1]
			if len(m.stack) >= MaxStack {
				return m.fail(in.Op, "stack overflow")
			}
			m.stack = append(m.stack, f.locals[in.Arg])
		case OpStore:
			v, err := m.pop(in.Op)
			if err != nil {
				return err
			}
			f := &m.frames[len(m.frames)-1]
			f.locals[in.Arg] = v
		case OpGLoad:
			if len(m.stack) >= MaxStack {
				return m.fail(in.Op, "stack overflow")
			}
			m.stack = append(m.stack, m.globals[in.Arg])
		case OpGStore:
			v, err := m.pop(in.Op)
			if err != nil {
				return err
			}
			m.globals[in.Arg] = v
		case OpHost:
			fn := &m.linked[in.Arg]
			if len(m.stack) < fn.Arity {
				return m.fail(in.Op, "host %q needs %d args, stack has %d", fn.Name, fn.Arity, len(m.stack))
			}
			if cap(m.argbuf) < fn.Arity {
				m.argbuf = make([]int64, fn.Arity)
			}
			args := m.argbuf[:fn.Arity]
			copy(args, m.stack[len(m.stack)-fn.Arity:])
			m.stack = m.stack[:len(m.stack)-fn.Arity]
			results, trapCode, err := fn.Fn(m, args)
			if err != nil {
				return m.fail(in.Op, "host %q: %v", fn.Name, err)
			}
			if len(m.stack)+len(results) > MaxStack {
				return m.fail(in.Op, "stack overflow")
			}
			m.stack = append(m.stack, results...)
			if trapCode != 0 {
				m.pc++ // resume after the call
				m.trap = trapCode
				m.status = StatusTrapped
				return nil
			}
		case OpHalt:
			m.pc++
			m.status = StatusHalted
			return nil
		default:
			return m.fail(in.Op, "illegal opcode")
		}
		m.pc++
	}
}

func (m *Machine) pop(op Op) (int64, error) {
	if len(m.stack) == 0 {
		return 0, m.fail(op, "stack underflow")
	}
	v := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return v, nil
}

func (m *Machine) binop(op Op, a, b int64) (int64, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpDiv:
		if b == 0 {
			return 0, m.fail(op, "division by zero")
		}
		return a / b, nil
	case OpMod:
		if b == 0 {
			return 0, m.fail(op, "modulo by zero")
		}
		return a % b, nil
	case OpAnd:
		return a & b, nil
	case OpOr:
		return a | b, nil
	case OpXor:
		return a ^ b, nil
	case OpShl:
		return a << (uint64(b) & 63), nil
	case OpShr:
		return a >> (uint64(b) & 63), nil
	case OpEq:
		return b2i(a == b), nil
	case OpNe:
		return b2i(a != b), nil
	case OpLt:
		return b2i(a < b), nil
	case OpGt:
		return b2i(a > b), nil
	case OpLe:
		return b2i(a <= b), nil
	case OpGe:
		return b2i(a >= b), nil
	}
	return 0, m.fail(op, "not a binary op")
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

const snapshotVersion = 1

// Snapshot captures the machine's complete execution state — program
// counter, operand stack, call frames with locals, and globals — as a
// portable byte string. Restoring the snapshot on another host with the same
// program resumes execution exactly where it stopped: this is the strong
// mobility mechanism used by mobile agents.
func (m *Machine) Snapshot() []byte {
	var b wire.Buffer
	m.SnapshotTo(&b)
	return b.Bytes()
}

// SnapshotTo appends the snapshot encoding to b, avoiding an intermediate
// allocation when the caller already holds a reusable buffer.
func (m *Machine) SnapshotTo(b *wire.Buffer) {
	b.PutUint(snapshotVersion)
	b.PutUint(uint64(m.pc))
	b.PutByte(byte(m.status))
	b.PutInt(m.trap)
	b.PutUint(uint64(len(m.stack)))
	for _, v := range m.stack {
		b.PutInt(v)
	}
	b.PutUint(uint64(len(m.globals)))
	for _, v := range m.globals {
		b.PutInt(v)
	}
	b.PutUint(uint64(len(m.frames)))
	for i := range m.frames {
		f := &m.frames[i]
		b.PutInt(int64(f.retPC))
		// Store only the used prefix of locals: trailing zeros compress away.
		used := len(f.locals)
		for used > 0 && f.locals[used-1] == 0 {
			used--
		}
		b.PutUint(uint64(used))
		for _, v := range f.locals[:used] {
			b.PutInt(v)
		}
	}
}

// Restore creates a machine from prog positioned at the snapshot state. The
// host table and fuel are supplied fresh by the restoring host; fuel and
// capabilities never travel with an agent.
func Restore(prog *Program, host *HostTable, fuel int64, snapshot []byte) (*Machine, error) {
	m := &Machine{}
	if err := m.RestoreInto(prog, host, fuel, snapshot); err != nil {
		return nil, err
	}
	return m, nil
}

// RestoreInto is Restore reusing m's storage. On error the machine is left
// in an unspecified state; a subsequent Reinit or RestoreInto makes it valid
// again.
func (m *Machine) RestoreInto(prog *Program, host *HostTable, fuel int64, snapshot []byte) error {
	if err := m.Reinit(prog, host, fuel); err != nil {
		return err
	}
	r := wire.NewReader(snapshot)
	if v := r.Uint(); r.Err() == nil && v != snapshotVersion {
		return fmt.Errorf("vm: unsupported snapshot version %d", v)
	}
	m.pc = int(r.Uint())
	m.status = Status(r.Byte())
	m.trap = r.Int()
	nStack := r.Uint()
	if nStack > MaxStack {
		return fmt.Errorf("vm: snapshot stack of %d exceeds max", nStack)
	}
	for i := uint64(0); i < nStack && r.Err() == nil; i++ {
		m.stack = append(m.stack, r.Int())
	}
	nGlob := r.Uint()
	if nGlob != uint64(prog.Globals) {
		if r.Err() != nil {
			return fmt.Errorf("vm: decode snapshot: %w", r.Err())
		}
		return fmt.Errorf("vm: snapshot has %d globals, program requires %d", nGlob, prog.Globals)
	}
	for i := 0; i < prog.Globals && r.Err() == nil; i++ {
		m.globals[i] = r.Int()
	}
	nFrames := r.Uint()
	if nFrames == 0 || nFrames > MaxFrames {
		return fmt.Errorf("vm: snapshot frame count %d invalid", nFrames)
	}
	m.frames = m.frames[:0]
	for i := uint64(0); i < nFrames && r.Err() == nil; i++ {
		m.frames = append(m.frames, frame{retPC: int(r.Int())})
		f := &m.frames[len(m.frames)-1]
		used := r.Uint()
		if used > MaxLocals {
			return fmt.Errorf("vm: snapshot frame with %d locals", used)
		}
		for j := uint64(0); j < used && r.Err() == nil; j++ {
			f.locals[j] = r.Int()
		}
	}
	if err := r.ExpectEOF(); err != nil {
		return fmt.Errorf("vm: decode snapshot: %w", err)
	}
	if m.pc < 0 || m.pc > len(prog.Code) {
		return fmt.Errorf("vm: snapshot pc %d out of range", m.pc)
	}
	switch m.status {
	case StatusReady, StatusTrapped, StatusHalted, StatusOutOfFuel:
	default:
		return fmt.Errorf("vm: snapshot status %d not restorable", m.status)
	}
	if m.status == StatusOutOfFuel {
		m.status = StatusReady // fresh fuel was just supplied
	}
	return nil
}
