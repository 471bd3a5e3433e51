// Package metrics provides the measurement and reporting toolkit used by
// logmob's experiment harness: observation series, aligned text tables for
// the paper-style result tables, CSV export, and ASCII line charts for the
// result figures.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Series collects numeric observations and summarises them.
type Series struct {
	vals []float64
}

// Observe appends one observation.
func (s *Series) Observe(v float64) { s.vals = append(s.vals, v) }

// N returns the number of observations.
func (s *Series) N() int { return len(s.vals) }

// Values returns a copy of the observations in observation order, for
// callers that need the raw sequence (e.g. exact-equality differential
// checks) rather than a summary.
func (s *Series) Values() []float64 {
	if len(s.vals) == 0 {
		return nil
	}
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

// Sum returns the total.
func (s *Series) Sum() float64 {
	total := 0.0
	for _, v := range s.vals {
		total += v
	}
	return total
}

// Mean returns the average, or 0 with no observations.
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.vals))
}

// Max returns the largest observation, or 0 with none.
func (s *Series) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0..100) by nearest-rank, or 0 with
// no observations.
func (s *Series) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sorted := make([]float64, len(s.vals))
	copy(sorted, s.vals)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Median returns the 50th percentile.
func (s *Series) Median() float64 { return s.Percentile(50) }

// Table accumulates rows and renders them as an aligned text table or CSV.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns the formatted cell at (row, col), or "" if out of range.
func (t *Table) Cell(row, col int) string {
	if row < 0 || row >= len(t.rows) || col < 0 || col >= len(t.rows[row]) {
		return ""
	}
	return t.rows[row][col]
}

func formatCell(c any) string {
	switch v := c.(type) {
	case float64:
		switch {
		case v == math.Trunc(v) && math.Abs(v) < 1e15:
			return fmt.Sprintf("%.0f", v)
		case math.Abs(v) >= 0.01:
			return fmt.Sprintf("%.3f", v)
		default:
			return fmt.Sprintf("%.3g", v)
		}
	case time.Duration:
		return v.Round(time.Millisecond).String()
	default:
		return fmt.Sprintf("%v", c)
	}
}

// Render writes the aligned text table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.headers)
	rule := make([]string, len(t.headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// RenderCSV writes the table as CSV (no escaping needed for our numeric
// content; commas in cells are replaced by semicolons defensively).
func (t *Table) RenderCSV(w io.Writer) {
	clean := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	cells := make([]string, len(t.headers))
	for i, h := range t.headers {
		cells[i] = clean(h)
	}
	fmt.Fprintln(w, strings.Join(cells, ","))
	for _, row := range t.rows {
		cells = cells[:0]
		for _, c := range row {
			cells = append(cells, clean(c))
		}
		fmt.Fprintln(w, strings.Join(cells, ","))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Chart renders one or more named (x, y) series as an ASCII line chart —
// the harness's stand-in for the paper-style figures.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	names  []string
	series map[string][]point
}

// point is one (x, y) sample.
type point struct {
	X, Y float64
}

// NewChart creates an empty chart.
func NewChart(title, xlabel, ylabel string) *Chart {
	return &Chart{Title: title, XLabel: xlabel, YLabel: ylabel, series: make(map[string][]point)}
}

// Add appends a point to the named series.
func (c *Chart) Add(series string, x, y float64) {
	if _, ok := c.series[series]; !ok {
		c.names = append(c.names, series)
	}
	c.series[series] = append(c.series[series], point{X: x, Y: y})
}

// markers distinguish series in the plot.
var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// The plot area of every rendered chart, in characters.
const (
	chartWidth  = 64
	chartHeight = 16
)

// Render draws the chart.
func (c *Chart) Render(w io.Writer) {
	const width, height = chartWidth, chartHeight
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	total := 0
	for _, pts := range c.series {
		for _, p := range pts {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
			total++
		}
	}
	if total == 0 {
		fmt.Fprintf(w, "%s\n  (no data)\n", c.Title)
		return
	}
	if minY > 0 {
		minY = 0 // anchor at zero for honest visual proportions
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, name := range c.names {
		mark := markers[si%len(markers)]
		for _, p := range c.series[name] {
			col := int((p.X - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((p.Y-minY)/(maxY-minY)*float64(height-1))
			if row >= 0 && row < height && col >= 0 && col < width {
				grid[row][col] = mark
			}
		}
	}
	if c.Title != "" {
		fmt.Fprintf(w, "%s\n", c.Title)
	}
	fmt.Fprintf(w, "  %s\n", c.YLabel)
	fmt.Fprintf(w, "  %10.3g +%s\n", maxY, strings.Repeat("-", width))
	for _, row := range grid {
		fmt.Fprintf(w, "  %10s |%s\n", "", string(row))
	}
	fmt.Fprintf(w, "  %10.3g +%s\n", minY, strings.Repeat("-", width))
	fmt.Fprintf(w, "  %10s  %-.3g%s%.3g  (%s)\n", "", minX,
		strings.Repeat(" ", width-18), maxX, c.XLabel)
	for si, name := range c.names {
		fmt.Fprintf(w, "  %c = %s\n", markers[si%len(markers)], name)
	}
}

// String renders the chart to a string.
func (c *Chart) String() string {
	var sb strings.Builder
	c.Render(&sb)
	return sb.String()
}
