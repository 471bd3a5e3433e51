package main

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a package with known findings.
const fixture = "./internal/lint/testdata/src/lockguard/guarded"

// runAtRoot runs the command from the module root, where its package
// patterns resolve, and returns stdout and the exit code.
func runAtRoot(t *testing.T, args ...string) (string, int) {
	t.Helper()
	t.Chdir("../..")
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return stdout.String(), code
}

// decode reads a -json document strictly: a renamed field fails it.
func decode(t *testing.T, r io.Reader) report {
	t.Helper()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var rep report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("decode -json output: %v", err)
	}
	return rep
}

// TestJSONRoundTrip proves the -json output is one document that survives
// decode/encode and carries the expected diagnostics.
func TestJSONRoundTrip(t *testing.T) {
	out, code := runAtRoot(t, "-json", fixture)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (fixture has known findings)", code)
	}
	rep := decode(t, strings.NewReader(out))
	if rep.Tool != "logmoblint" {
		t.Errorf("report tool = %q, want logmoblint", rep.Tool)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("report has no findings; the fixture should produce several")
	}
	for _, f := range rep.Findings {
		if f.Analyzer != "lockguard" || f.Check != "lockguard" {
			t.Errorf("finding %+v: analyzer/check = %s/%s, want lockguard/lockguard", f, f.Analyzer, f.Check)
		}
		if filepath.IsAbs(f.File) || strings.Contains(f.File, "\\") {
			t.Errorf("finding file %q should be slash-separated and root-relative", f.File)
		}
		if f.Line <= 0 {
			t.Errorf("finding %+v: missing line number", f)
		}
	}
	// Round trip: encode the decoded report and decode again.
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	rep2 := decode(t, bytes.NewReader(buf))
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
	out, code := runAtRoot(t, "./internal/lint")
	if code != 0 {
		t.Fatalf("clean package exit code = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "clean") {
		t.Errorf("clean run should say so:\n%s", out)
	}
}
