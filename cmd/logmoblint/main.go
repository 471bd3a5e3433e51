// Command logmoblint is the multichecker driver for logmob's in-tree
// analyzers (internal/lint): determinism, pooldiscipline and lockguard. CI
// runs it on every PR; a non-baselined finding fails the build.
//
// Usage:
//
//	go run ./cmd/logmoblint ./...
//	go run ./cmd/logmoblint -json ./...
//	go run ./cmd/logmoblint -baseline lint_baseline.json ./internal/netsim
//
// Output modes:
//
//   - default: file:line:col: message (check) lines, one per finding.
//   - -json: a findings.Report document, the schema the baseline file
//     below is read back in.
//
// The baseline file (-baseline, default lint_baseline.json at the working
// directory) is a findings.Report of grandfathered findings: matching
// findings (same tool, check, file and message; line numbers are ignored)
// are reported as baselined and do not affect the exit code. The repo's
// committed baseline is empty and should stay that way — fix or
// //lint:allow instead. -write-baseline regenerates the file from the
// current findings when a grandfathering window is genuinely needed.
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
	baselinePath := flag.String("baseline", "lint_baseline.json", "baseline findings file (missing file = empty baseline)")
	writeBaseline := flag.Bool("write-baseline", false, "rewrite the baseline file with the current findings and exit 0")
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

	if *writeBaseline {
		f, err := os.Create(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "logmoblint: %v\n", err)
			os.Exit(2)
		}
		if err := report.Encode(f); err != nil {
			fmt.Fprintf(os.Stderr, "logmoblint: %v\n", err)
			os.Exit(2)
		}
		f.Close()
		fmt.Printf("logmoblint: wrote %d findings to %s\n", len(report.Findings), *baselinePath)
		return
	}

	baseline, err := findings.LoadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "logmoblint: %v\n", err)
		os.Exit(2)
	}

	var fresh, grandfathered []findings.Finding
	for _, f := range report.Findings {
		if baseline[f.Key()] {
			grandfathered = append(grandfathered, f)
		} else {
			fresh = append(fresh, f)
		}
	}

	if *jsonOut {
		out := &findings.Report{Tool: "logmoblint", Findings: fresh}
		out.Sort()
		if err := out.Encode(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "logmoblint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range grandfathered {
			fmt.Printf("baselined: %s\n", f)
		}
		for _, f := range fresh {
			fmt.Println(f)
		}
		if len(fresh) == 0 {
			fmt.Printf("logmoblint: %d packages clean (%d baselined findings)\n", len(pkgs), len(grandfathered))
		}
	}
	if len(fresh) > 0 {
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
