// Package findings defines the JSON schema of cmd/logmoblint's analyzer
// diagnostics: the Report it emits with -json.
//
// A Finding identifies itself by Tool and Check and is located by
// File/Line/Col.
package findings

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Finding is one problem reported by a tool.
type Finding struct {
	// Tool is the reporting tool, e.g. "logmoblint".
	Tool string `json:"tool"`
	// Check names the specific rule within the tool, e.g. "wallclock",
	// "pooldiscipline", "lockguard".
	Check string `json:"check"`
	// File/Line/Col locate the diagnostic. Line and Col are 1-based.
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
	Col  int    `json:"col,omitempty"`
	// Message is the human-readable description.
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Col, f.Message, f.Check)
}

// Report is the top-level JSON document.
type Report struct {
	// Tool is the tool that produced the report.
	Tool string `json:"tool"`
	// Findings is the full list, sorted by file, line, then message so the
	// output is stable across runs.
	Findings []Finding `json:"findings"`
}

// Sort orders the findings deterministically (file, line, col, message).
func (r *Report) Sort() {
	sort.Slice(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
}

// Encode writes the report as indented JSON.
func (r *Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Decode reads a report written by Encode.
func Decode(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("findings: decode report: %w", err)
	}
	return &rep, nil
}
