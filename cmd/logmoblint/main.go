// Command logmoblint is the multichecker driver for logmob's in-tree
// analyzers (internal/lint): determinism, pooldiscipline and lockguard. CI
// runs it on every PR; any finding fails the build. The one way to keep a
// finding is a per-site //lint:allow <check> <reason> comment (see
// internal/lint) — there is no grandfather list.
//
// Usage:
//
//	go run ./cmd/logmoblint ./...
//	go run ./cmd/logmoblint -json ./...
//
// Output modes:
//
//   - default: file:line:col: message (check) lines, one per finding.
//   - -json: one document, {"tool": "logmoblint", "findings": [...]}, whose
//     findings are lint.Result values.
//
// File paths are relative to the working directory, so reports are
// machine-independent. The exit code is 1 when there are findings, 2 when
// the packages cannot be loaded, and 0 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"logmob/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// report is the -json document.
type report struct {
	Tool     string        `json:"tool"`
	Findings []lint.Result `json:"findings"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("logmoblint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as one JSON document")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "logmoblint: %v\n", err)
		return 2
	}
	pkgs, err := lint.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "logmoblint: %v\n", err)
		return 2
	}
	results := lint.Run(lint.All(), pkgs)
	for i, r := range results {
		if rel, err := filepath.Rel(wd, r.File); err == nil && !strings.HasPrefix(rel, "..") {
			results[i].File = filepath.ToSlash(rel)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{Tool: "logmoblint", Findings: results}); err != nil {
			fmt.Fprintf(stderr, "logmoblint: %v\n", err)
			return 2
		}
	} else {
		for _, r := range results {
			fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n", r.File, r.Line, r.Col, r.Message, r.Check)
		}
		if len(results) == 0 {
			fmt.Fprintf(stdout, "logmoblint: %d packages clean\n", len(pkgs))
		}
	}
	if len(results) > 0 {
		return 1
	}
	return 0
}
