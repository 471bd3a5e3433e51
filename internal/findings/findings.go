// Package findings defines the JSON schema of cmd/logmoblint's analyzer
// diagnostics: the Report it emits with -json and reads back as its
// baseline of grandfathered findings.
//
// A Finding identifies itself by Tool and Check and is located by
// File/Line/Col. Baseline matching deliberately ignores Line and Col — line
// numbers drift with every edit, but a grandfathered finding is still the
// same finding.
package findings

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
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

// Key is the identity used for baseline matching: everything but the
// position, which drifts with unrelated edits.
func (f Finding) Key() string {
	return f.Tool + "\x00" + f.Check + "\x00" + f.File + "\x00" + f.Message
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

// LoadBaseline reads a baseline file: a Report whose findings are
// grandfathered. A missing file is an empty baseline, so a fresh checkout
// needs no placeholder.
func LoadBaseline(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]bool{}, nil
		}
		return nil, err
	}
	defer f.Close()
	rep, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("findings: baseline %s: %w", path, err)
	}
	keys := make(map[string]bool, len(rep.Findings))
	for _, fd := range rep.Findings {
		keys[fd.Key()] = true
	}
	return keys, nil
}
