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
//   - -json: a findings.Report document.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"logmob/internal/findings"
	"logmob/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON findings.Report")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "logmoblint: %v\n", err)
		os.Exit(2)
	}

	pkgs, err := lint.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "logmoblint: %v\n", err)
		os.Exit(2)
	}

	report := Report(wd, lint.Run(lint.All(), pkgs))

	if *jsonOut {
		if err := report.Encode(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "logmoblint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range report.Findings {
			fmt.Println(f)
		}
		if len(report.Findings) == 0 {
			fmt.Printf("logmoblint: %d packages clean\n", len(pkgs))
		}
	}
	if len(report.Findings) > 0 {
		os.Exit(1)
	}
}

// Report converts analyzer results into the findings schema, with
// file paths made relative to root so reports are machine-independent.
func Report(root string, results []lint.Result) *findings.Report {
	rep := &findings.Report{Tool: "logmoblint"}
	for _, r := range results {
		file := r.File
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		rep.Findings = append(rep.Findings, findings.Finding{
			Tool:    "logmoblint",
			Check:   r.Check,
			File:    filepath.ToSlash(file),
			Line:    r.Line,
			Col:     r.Col,
			Message: r.Message,
		})
	}
	rep.Sort()
	return rep
}
