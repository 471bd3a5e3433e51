package scenario

import (
	"fmt"
	"io"

	"logmob/internal/metrics"
)

// Result is the output of one scenario or experiment run.
type Result struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Charts []*metrics.Chart
	Notes  []string
}

// Render writes the complete result.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "=== %s: %s ===\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		t.Render(w)
		fmt.Fprintln(w)
	}
	for _, c := range r.Charts {
		c.Render(w)
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}
