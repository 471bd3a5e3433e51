package vm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Assemble translates assembler text into a Program.
//
// Syntax, one statement per line; ';' starts a comment:
//
//	.globals N          declare N global slots
//	.entry LABEL        export LABEL as an entry point
//	LABEL:              define a code label
//	OP [ARG]            an instruction; ARG is an integer literal, or a
//	                    label for jmp/jz/jnz/call, or a host-function name
//	                    for host
//
// Host imports are collected in first-use order into the program's import
// table.
func Assemble(src string) (*Program, error) {
	p := &Program{Entries: make(map[string]int)}
	labels := make(map[string]int)
	importIdx := make(map[string]int)
	type fixup struct {
		instr int
		label string
		line  int
	}
	var fixups []fixup
	var entryNames []string
	entryLines := make(map[string]int)

	lines := strings.Split(src, "\n")
	for lineNo, raw := range lines {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}

		// Directives.
		if strings.HasPrefix(line, ".") {
			fields := strings.Fields(line)
			switch fields[0] {
			case ".globals":
				if len(fields) != 2 {
					return nil, asmErr(lineNo, ".globals needs a count")
				}
				n, err := strconv.Atoi(fields[1])
				if err != nil || n < 0 {
					return nil, asmErr(lineNo, "bad .globals count %q", fields[1])
				}
				p.Globals = n
			case ".entry":
				if len(fields) != 2 {
					return nil, asmErr(lineNo, ".entry needs a label")
				}
				entryNames = append(entryNames, fields[1])
				entryLines[fields[1]] = lineNo
			default:
				return nil, asmErr(lineNo, "unknown directive %q", fields[0])
			}
			continue
		}

		// Labels (possibly followed by an instruction on the same line).
		for {
			colon := strings.IndexByte(line, ':')
			if colon < 0 {
				break
			}
			label := strings.TrimSpace(line[:colon])
			if label == "" || strings.ContainsAny(label, " \t") {
				return nil, asmErr(lineNo, "bad label %q", label)
			}
			if _, dup := labels[label]; dup {
				return nil, asmErr(lineNo, "duplicate label %q", label)
			}
			labels[label] = len(p.Code)
			line = strings.TrimSpace(line[colon+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}

		fields := strings.Fields(line)
		op, ok := opByName(fields[0])
		if !ok {
			return nil, asmErr(lineNo, "unknown instruction %q", fields[0])
		}
		in := Instr{Op: op}
		switch {
		case !op.hasArg():
			if len(fields) != 1 {
				return nil, asmErr(lineNo, "%s takes no argument", op)
			}
		case len(fields) != 2:
			return nil, asmErr(lineNo, "%s needs one argument", op)
		case op == OpHost:
			name := fields[1]
			idx, seen := importIdx[name]
			if !seen {
				idx = len(p.Imports)
				importIdx[name] = idx
				p.Imports = append(p.Imports, name)
			}
			in.Arg = int64(idx)
		case op.isJump():
			if v, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
				in.Arg = v
			} else {
				fixups = append(fixups, fixup{instr: len(p.Code), label: fields[1], line: lineNo})
			}
		default:
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, asmErr(lineNo, "bad integer %q", fields[1])
			}
			in.Arg = v
		}
		p.Code = append(p.Code, in)
	}

	for _, f := range fixups {
		addr, ok := labels[f.label]
		if !ok {
			return nil, asmErr(f.line, "undefined label %q", f.label)
		}
		p.Code[f.instr].Arg = int64(addr)
	}
	for _, name := range entryNames {
		addr, ok := labels[name]
		if !ok {
			return nil, asmErr(entryLines[name], "entry label %q not defined", name)
		}
		p.Entries[name] = addr
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustAssemble is Assemble panicking on error, for statically known programs
// declared in package variables and tests.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func asmErr(lineNo int, format string, args ...any) error {
	return fmt.Errorf("vm: asm line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
}

func opByName(name string) (Op, bool) {
	for op, n := range opNames {
		if n == name {
			return op, true
		}
	}
	return 0, false
}

// Disassemble renders a program back into readable assembler, reconstructing
// labels for jump targets and entry points.
func Disassemble(p *Program) string {
	var sb strings.Builder
	if p.Globals > 0 {
		fmt.Fprintf(&sb, ".globals %d\n", p.Globals)
	}

	// Give every entry its label, in name order so the text is the same on
	// every call, and every other jump target a generated one. Entries that
	// share an address all label it; a jump names the first.
	names := make([]string, 0, len(p.Entries))
	for name := range p.Entries {
		names = append(names, name)
	}
	slices.Sort(names)
	labelsAt := make(map[int][]string)
	for _, name := range names {
		addr := p.Entries[name]
		labelsAt[addr] = append(labelsAt[addr], name)
		fmt.Fprintf(&sb, ".entry %s\n", name)
	}
	next := 0
	for _, in := range p.Code {
		if in.Op.isJump() {
			addr := int(in.Arg)
			if len(labelsAt[addr]) == 0 {
				labelsAt[addr] = []string{fmt.Sprintf("L%d", next)}
				next++
			}
		}
	}
	labels := func(addr int) {
		for _, label := range labelsAt[addr] {
			fmt.Fprintf(&sb, "%s:\n", label)
		}
	}

	for i, in := range p.Code {
		labels(i)
		switch {
		case in.Op == OpHost:
			fmt.Fprintf(&sb, "\t%s %s\n", in.Op, p.Imports[in.Arg])
		case in.Op.isJump():
			fmt.Fprintf(&sb, "\t%s %s\n", in.Op, labelsAt[int(in.Arg)][0])
		case in.Op.hasArg():
			fmt.Fprintf(&sb, "\t%s %d\n", in.Op, in.Arg)
		default:
			fmt.Fprintf(&sb, "\t%s\n", in.Op)
		}
	}
	// A label pointing one past the last instruction (possible for a
	// forward jump used as an end marker) is emitted trailing.
	labels(len(p.Code))
	return sb.String()
}
