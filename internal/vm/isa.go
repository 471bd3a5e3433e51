// Package vm implements the portable bytecode virtual machine that carries
// logical mobility in logmob.
//
// The paper assumes Java-style dynamic class loading; Go cannot load code at
// run time, so mobile code in this reproduction is bytecode for this VM. A
// program (and, for mobile agents, its captured execution state) is plain
// data: it can be packed into a Logical Mobility Unit, signed, shipped across
// a link, verified and executed on arrival — the same life cycle as Java
// mobile code.
//
// The machine is a fuel-metered stack machine over int64 values with explicit
// call frames, per-frame locals, shared globals, and host functions imported
// by name. Host functions are the only way a program touches its environment,
// which is what lets a receiving host run foreign code inside a "protected
// environment": it decides exactly which host functions to link.
package vm

import (
	"fmt"
	"slices"

	"logmob/internal/wire"
)

// Op is a bytecode opcode.
type Op byte

// Opcode set. Opcodes with immediate arguments note them.
const (
	OpNop  Op = iota + 1
	OpPush    // arg: immediate value pushed
	OpPop
	OpDup
	OpSwap
	OpOver // push copy of second-from-top
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpAnd
	OpOr
	OpXor
	OpNot // bitwise complement
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpGt
	OpLe
	OpGe
	OpJmp  // arg: target pc
	OpJz   // arg: target pc; jump if popped value == 0
	OpJnz  // arg: target pc; jump if popped value != 0
	OpCall // arg: target pc; pushes a frame
	OpRet
	OpLoad   // arg: local slot in current frame
	OpStore  // arg: local slot in current frame
	OpGLoad  // arg: global slot
	OpGStore // arg: global slot
	OpHost   // arg: index into the program's host import table
	OpHalt
	opMax // sentinel; keep last
)

var opNames = map[Op]string{
	OpNop: "nop", OpPush: "push", OpPop: "pop", OpDup: "dup", OpSwap: "swap",
	OpOver: "over", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpMod: "mod", OpNeg: "neg", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpNot: "not", OpShl: "shl", OpShr: "shr", OpEq: "eq", OpNe: "ne",
	OpLt: "lt", OpGt: "gt", OpLe: "le", OpGe: "ge", OpJmp: "jmp",
	OpJz: "jz", OpJnz: "jnz", OpCall: "call", OpRet: "ret", OpLoad: "load",
	OpStore: "store", OpGLoad: "gload", OpGStore: "gstore", OpHost: "host",
	OpHalt: "halt",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// hasArg reports whether the opcode carries an immediate argument.
func (o Op) hasArg() bool {
	switch o {
	case OpPush, OpJmp, OpJz, OpJnz, OpCall, OpLoad, OpStore, OpGLoad, OpGStore, OpHost:
		return true
	}
	return false
}

// isJump reports whether the opcode's argument is a code address.
func (o Op) isJump() bool {
	switch o {
	case OpJmp, OpJz, OpJnz, OpCall:
		return true
	}
	return false
}

// Instr is one decoded instruction.
type Instr struct {
	Op  Op
	Arg int64
}

// Program is a unit of mobile code: instructions plus the metadata needed to
// link and enter it anywhere.
type Program struct {
	// Code is the instruction sequence.
	Code []Instr
	// Globals is the number of global slots the program requires.
	Globals int
	// Entries maps exported entry-point names to code addresses.
	Entries map[string]int
	// Imports names the host functions the program requires, indexed by the
	// argument of OpHost. The executing host links these by name — or
	// refuses to.
	Imports []string

	// validated memoizes a successful Validate so that machines recycled
	// across many evaluations of the same (immutable) program skip the
	// per-instruction scan. Mutating a validated Program is not supported.
	validated bool
}

const programVersion = 1

// Encode serialises the program to its canonical wire form.
func (p *Program) Encode() []byte {
	var b wire.Buffer
	b.PutUint(programVersion)
	b.PutUint(uint64(len(p.Code)))
	for _, in := range p.Code {
		b.PutByte(byte(in.Op))
		if in.Op.hasArg() {
			b.PutInt(in.Arg)
		}
	}
	b.PutUint(uint64(p.Globals))
	// Entries, deterministically ordered.
	names := make([]string, 0, len(p.Entries))
	for name := range p.Entries {
		names = append(names, name)
	}
	slices.Sort(names)
	b.PutUint(uint64(len(names)))
	for _, name := range names {
		b.PutString(name)
		b.PutUint(uint64(p.Entries[name]))
	}
	b.PutStringSlice(p.Imports)
	return b.Bytes()
}

// DecodeProgram parses a program encoded by Encode, validating opcode
// legality and jump targets so that a malformed or malicious payload cannot
// put the interpreter into an undefined state.
func DecodeProgram(data []byte) (*Program, error) {
	r := wire.NewReader(data)
	if v := r.Uint(); r.Err() == nil && v != programVersion {
		return nil, fmt.Errorf("vm: unsupported program version %d", v)
	}
	n := r.Uint()
	if r.Err() != nil {
		return nil, fmt.Errorf("vm: decode program: %w", r.Err())
	}
	if n > uint64(len(data)) {
		return nil, fmt.Errorf("vm: program claims %d instructions in %d bytes", n, len(data))
	}
	p := &Program{Code: make([]Instr, 0, n), Entries: make(map[string]int)}
	for i := uint64(0); i < n; i++ {
		op := Op(r.Byte())
		if op == 0 || op >= opMax {
			return nil, fmt.Errorf("vm: illegal opcode %d at instruction %d", byte(op), i)
		}
		in := Instr{Op: op}
		if op.hasArg() {
			in.Arg = r.Int()
		}
		p.Code = append(p.Code, in)
	}
	p.Globals = int(r.Uint())
	entries := r.Uint()
	for i := uint64(0); i < entries && r.Err() == nil; i++ {
		name := r.String()
		p.Entries[name] = int(r.Uint())
	}
	p.Imports = r.StringSlice()
	if err := r.ExpectEOF(); err != nil {
		return nil, fmt.Errorf("vm: decode program: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate checks static program well-formedness: jump targets, host import
// indices, entry addresses and slot bounds.
func (p *Program) Validate() error {
	if p.validated {
		return nil
	}
	if p.Globals < 0 || p.Globals > MaxGlobals {
		return fmt.Errorf("vm: program requires %d globals, max %d", p.Globals, MaxGlobals)
	}
	for i, in := range p.Code {
		switch {
		case in.Op.isJump():
			if in.Arg < 0 || in.Arg >= int64(len(p.Code)) {
				return fmt.Errorf("vm: instruction %d: jump target %d out of range", i, in.Arg)
			}
		case in.Op == OpHost:
			if in.Arg < 0 || in.Arg >= int64(len(p.Imports)) {
				return fmt.Errorf("vm: instruction %d: host import %d out of range", i, in.Arg)
			}
		case in.Op == OpLoad || in.Op == OpStore:
			if in.Arg < 0 || in.Arg >= MaxLocals {
				return fmt.Errorf("vm: instruction %d: local slot %d out of range", i, in.Arg)
			}
		case in.Op == OpGLoad || in.Op == OpGStore:
			if in.Arg < 0 || in.Arg >= int64(p.Globals) {
				return fmt.Errorf("vm: instruction %d: global slot %d out of range (program has %d)", i, in.Arg, p.Globals)
			}
		}
	}
	// Report the first bad entry in name order, so the error is the same on
	// every call; the success path allocates nothing.
	found, bad, badAddr := false, "", 0
	for name, addr := range p.Entries {
		if (addr < 0 || addr >= len(p.Code)) && (!found || name < bad) {
			found, bad, badAddr = true, name, addr
		}
	}
	if found {
		return fmt.Errorf("vm: entry %q at %d out of range", bad, badAddr)
	}
	p.validated = true
	return nil
}
