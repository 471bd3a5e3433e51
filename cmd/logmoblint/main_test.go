package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"logmob/internal/findings"
)

// fixture is a package with known findings, used to drive the binary.
const fixture = "./internal/lint/testdata/src/lockguard/guarded"

// buildLint compiles the driver once into a temp dir and returns its path
// plus the module root the binary must run from.
func buildLint(t *testing.T) (bin, root string) {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for !exists(filepath.Join(root, "go.mod")) {
		parent := filepath.Dir(root)
		if parent == root {
			t.Fatal("no go.mod above working directory")
		}
		root = parent
	}
	bin = filepath.Join(t.TempDir(), "logmoblint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/logmoblint")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build driver: %v\n%s", err, out)
	}
	return bin, root
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// run executes the driver from root and returns stdout and the exit code.
func run(t *testing.T, bin, root string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run driver: %v\n%s", err, stderr.String())
	}
	if stderr.Len() > 0 {
		t.Logf("driver stderr: %s", stderr.String())
	}
	return stdout.String(), code
}

// TestJSONRoundTrip proves the -json output is a findings.Report that
// survives decode/encode and carries the expected diagnostics.
func TestJSONRoundTrip(t *testing.T) {
	bin, root := buildLint(t)
	out, code := run(t, bin, root, "-json", fixture)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (fixture has known findings)", code)
	}
	rep, err := findings.Decode(strings.NewReader(out))
	if err != nil {
		t.Fatalf("decode -json output: %v", err)
	}
	if rep.Tool != "logmoblint" {
		t.Errorf("report tool = %q, want logmoblint", rep.Tool)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("report has no findings; the fixture should produce several")
	}
	for _, f := range rep.Findings {
		if f.Tool != "logmoblint" || f.Check != "lockguard" {
			t.Errorf("finding %s: tool/check = %s/%s, want logmoblint/lockguard", f, f.Tool, f.Check)
		}
		if filepath.IsAbs(f.File) || strings.Contains(f.File, "\\") {
			t.Errorf("finding file %q should be slash-separated and root-relative", f.File)
		}
		if f.Line <= 0 {
			t.Errorf("finding %s: missing line number", f)
		}
	}
	// Round trip: encode the decoded report and decode again.
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	rep2, err := findings.Decode(&buf)
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if len(rep2.Findings) != len(rep.Findings) {
		t.Fatalf("round trip lost findings: %d != %d", len(rep2.Findings), len(rep.Findings))
	}
	for i := range rep.Findings {
		if rep.Findings[i] != rep2.Findings[i] {
			t.Errorf("finding %d changed across round trip:\n  %+v\n  %+v", i, rep.Findings[i], rep2.Findings[i])
		}
	}
}

// TestCleanPackage proves a clean package exits 0 and says so.
func TestCleanPackage(t *testing.T) {
	bin, root := buildLint(t)
	out, code := run(t, bin, root, "./internal/findings")
	if code != 0 {
		t.Fatalf("clean package exit code = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "clean") {
		t.Errorf("clean run should say so:\n%s", out)
	}
}
