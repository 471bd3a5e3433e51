package logmob_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

var updateExamples = flag.Bool("update", false, "rewrite testdata/examples/*.stdout from the current examples")

// TestExamples builds every program under examples/ once, runs each, and
// requires exit status 0 and stdout byte-equal to its golden in
// testdata/examples. The examples run on the deterministic simulator, so a
// changed line is a changed behaviour. Regenerate with
// `go test -run TestExamples -update .` and read the diff.
func TestExamples(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	var ran int
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		name := d.Name()
		ran++
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			var stdout, stderr bytes.Buffer
			cmd := exec.CommandContext(ctx, filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatal(err)
				}
				t.Errorf("exit status %d, want 0; stderr:\n%s", exit.ExitCode(), stderr.Bytes())
			}
			golden := filepath.Join("testdata", "examples", name+".stdout")
			if *updateExamples {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout differs from %s:\n--- got\n%s--- want\n%s", golden, stdout.Bytes(), want)
			}
		})
	}
	if ran == 0 {
		t.Fatal("found no examples")
	}
}
