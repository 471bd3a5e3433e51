package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// threeInstructions adds its two arguments.
const threeInstructions = ".entry sum\nsum:\n\tadd\n\thalt\n"

// lmuasm runs the command and returns its exit code and both streams.
func lmuasm(args ...string) (exit int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	exit = run(args, &out, &errOut)
	return exit, out.String(), errOut.String()
}

func writeSource(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.s")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAsmDisRoundTrip assembles a source file and disassembles the bytecode:
// the listing assembles again to the same bytes.
func TestAsmDisRoundTrip(t *testing.T) {
	src := writeSource(t, threeInstructions)
	bin := strings.TrimSuffix(src, ".s") + ".bin"
	exit, stdout, stderr := lmuasm("asm", src)
	if exit != 0 || !strings.Contains(stdout, "2 instructions, 1 entries, 0 imports -> "+bin) {
		t.Fatalf("asm: exit %d, stdout %q, stderr %q", exit, stdout, stderr)
	}
	exit, listing, stderr := lmuasm("dis", bin)
	if exit != 0 || !strings.Contains(listing, "add") || !strings.Contains(listing, "sum") {
		t.Fatalf("dis: exit %d, stdout %q, stderr %q", exit, listing, stderr)
	}
	again := writeSource(t, listing)
	if exit, _, stderr := lmuasm("asm", "-o", again+".bin", again); exit != 0 {
		t.Fatalf("the listing does not assemble: exit %d, stderr %q", exit, stderr)
	}
	first, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(again + ".bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("asm -> dis -> asm changed the bytecode:\n%x\n%x", first, second)
	}
}

// TestRunEntryAndArgs runs a named entry with arguments, from source and
// from bytecode, and reads the result off stdout.
func TestRunEntryAndArgs(t *testing.T) {
	src := writeSource(t, threeInstructions)
	if exit, _, stderr := lmuasm("asm", src); exit != 0 {
		t.Fatalf("asm: exit %d, stderr %q", exit, stderr)
	}
	for _, prog := range []string{src, strings.TrimSuffix(src, ".s") + ".bin"} {
		exit, stdout, stderr := lmuasm("run", "-entry", "sum", "-args", "40, 2", prog)
		if exit != 0 || !strings.Contains(stdout, "status: halted\nsteps: 2 ") || !strings.HasSuffix(stdout, "stack: [42]\n") {
			t.Errorf("run %s: exit %d, stdout %q, stderr %q", prog, exit, stdout, stderr)
		}
	}
}

func TestExitCodes(t *testing.T) {
	good := writeSource(t, threeInstructions)
	bad := writeSource(t, "main:\n\tfrobnicate\n")
	missing := filepath.Join(t.TempDir(), "absent.s")
	cases := []struct {
		name string
		args []string
		exit int
		// stderr must mention this.
		stderr string
	}{
		{"no command", nil, 2, "usage:"},
		{"unknown command", []string{"link", good}, 2, "usage:"},
		{"unknown flag", []string{"run", "-turbo", good}, 2, "-turbo"},
		{"bad source", []string{"asm", bad}, 1, "lmuasm: "},
		{"missing file", []string{"run", missing}, 1, "absent.s"},
		{"not bytecode", []string{"dis", good}, 1, "lmuasm: "},
		{"unknown entry", []string{"run", "-entry", "nowhere", good}, 1, "nowhere"},
		{"bad argument", []string{"run", "-entry", "sum", "-args", "1,x", good}, 1, `bad argument "x"`},
	}
	for _, c := range cases {
		exit, stdout, stderr := lmuasm(c.args...)
		if exit != c.exit || !strings.Contains(stderr, c.stderr) || stdout != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit %d and stderr mentioning %q",
				c.name, exit, stdout, stderr, c.exit, c.stderr)
		}
	}
}
