package vm

import (
	"strings"
	"testing"
)

func TestAssembleBasics(t *testing.T) {
	prog, err := Assemble(`
; a comment-only line
.globals 4
.entry start
start:
	push 10    ; trailing comment
	gstore 3
	jmp end
end:
	halt
`)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if prog.Globals != 4 {
		t.Errorf("Globals = %d", prog.Globals)
	}
	if prog.Entries["start"] != 0 {
		t.Errorf("entry start = %d", prog.Entries["start"])
	}
	if len(prog.Code) != 4 {
		t.Fatalf("code len = %d", len(prog.Code))
	}
	if prog.Code[2].Op != OpJmp || prog.Code[2].Arg != 3 {
		t.Errorf("jmp = %+v", prog.Code[2])
	}
}

func TestAssembleForwardAndBackwardLabels(t *testing.T) {
	prog, err := Assemble(`
.entry main
main:
	jmp fwd
back:
	halt
fwd:
	jmp back
`)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if prog.Code[0].Arg != 2 { // fwd
		t.Errorf("forward ref = %d, want 2", prog.Code[0].Arg)
	}
	if prog.Code[2].Arg != 1 { // back
		t.Errorf("backward ref = %d, want 1", prog.Code[2].Arg)
	}
}

func TestAssembleLabelWithInstructionOnSameLine(t *testing.T) {
	prog, err := Assemble(".entry main\nmain: push 1\nhalt\n")
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if len(prog.Code) != 2 || prog.Code[0].Op != OpPush {
		t.Errorf("code = %+v", prog.Code)
	}
}

func TestAssembleNumericJumpTarget(t *testing.T) {
	prog, err := Assemble(".entry main\nmain:\njmp 1\nhalt\n")
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if prog.Code[0].Arg != 1 {
		t.Errorf("numeric jump arg = %d", prog.Code[0].Arg)
	}
}

func TestAssembleHostImportOrder(t *testing.T) {
	prog, err := Assemble(`
.entry main
main:
	host beta
	host alpha
	host beta
	halt
`)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if len(prog.Imports) != 2 || prog.Imports[0] != "beta" || prog.Imports[1] != "alpha" {
		t.Errorf("Imports = %v, want [beta alpha] (first-use order)", prog.Imports)
	}
	if prog.Code[0].Arg != 0 || prog.Code[1].Arg != 1 || prog.Code[2].Arg != 0 {
		t.Errorf("host indices = %d,%d,%d", prog.Code[0].Arg, prog.Code[1].Arg, prog.Code[2].Arg)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string
	}{
		{"unknown-op", ".entry m\nm:\nfly 1\n", "unknown instruction"},
		{"missing-arg", ".entry m\nm:\npush\n", "needs one argument"},
		{"extra-arg", ".entry m\nm:\nhalt 3\n", "takes no argument"},
		{"bad-int", ".entry m\nm:\npush abc\n", "bad integer"},
		{"undefined-label", ".entry m\nm:\njmp nowhere\n", "undefined label"},
		{"dup-label", "m:\nm:\nhalt\n", "duplicate label"},
		{"bad-globals", ".globals x\n", "bad .globals"},
		{"bad-directive", ".frobnicate 1\n", "unknown directive"},
		{"missing-entry-label", ".entry ghost\nhalt\n", "not defined"},
		{"bad-label", "a b:\nhalt\n", "bad label"},
		{"globals-missing-count", ".globals\n", ".globals needs a count"},
		{"entry-missing-label", ".entry\n", ".entry needs a label"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil || !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("Assemble = %v, want error containing %q", err, c.frag)
			}
		})
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble did not panic")
		}
	}()
	MustAssemble("bogus instruction\n")
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
.globals 2
.entry main
main:
	push 100
	gstore 0
loop:
	gload 0
	jz done
	gload 0
	push 1
	sub
	gstore 0
	host tick
	jmp loop
done:
	call helper
	halt
helper:
	push -5
	neg
	ret
`
	prog := MustAssemble(src)
	text := Disassemble(prog)
	prog2, err := Assemble(text)
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, text)
	}
	if string(prog.Encode()) != string(prog2.Encode()) {
		t.Errorf("disassemble/assemble round trip changed the program:\n%s", text)
	}
}

func TestDisassembleHostNames(t *testing.T) {
	prog := MustAssemble(".entry m\nm:\nhost ping\nhalt\n")
	text := Disassemble(prog)
	if !strings.Contains(text, "host ping") {
		t.Errorf("Disassemble output missing host name:\n%s", text)
	}
}

// Two entries at one address: the disassembly is the same text on every
// call, labels the address with both names, and reassembles to the same
// bytes.
func TestDisassembleAliasedEntries(t *testing.T) {
	prog := MustAssemble(".entry b\n.entry a\na:\nb:\npush 1\nhalt\n")
	want := Disassemble(prog)
	for i := 0; i < 50; i++ {
		text := Disassemble(prog)
		if text != want {
			t.Fatalf("call %d disassembled differently:\n%s\nvs\n%s", i, text, want)
		}
		prog2, err := Assemble(text)
		if err != nil {
			t.Fatalf("reassemble: %v\n%s", err, text)
		}
		if string(prog2.Encode()) != string(prog.Encode()) {
			t.Fatalf("round trip changed the program:\n%s", text)
		}
	}
	if !strings.Contains(want, ".entry a\n.entry b\n") {
		t.Errorf("entries not in name order:\n%s", want)
	}
}
