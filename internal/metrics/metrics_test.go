package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesStats(t *testing.T) {
	var s Series
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Observe(v)
	}
	if s.N() != 5 || s.Sum() != 15 || s.Mean() != 3 {
		t.Errorf("N=%d Sum=%v Mean=%v", s.N(), s.Sum(), s.Mean())
	}
	if s.Max() != 5 {
		t.Errorf("Max=%v", s.Max())
	}
	if got := s.Median(); got != 3 {
		t.Errorf("Median = %v", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("P100 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Max() != 0 || s.Median() != 0 {
		t.Error("empty series should return zeros")
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(vals []float64) bool {
		var s Series
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Observe(v)
		}
		if len(vals) == 0 {
			return true
		}
		med := s.Median()
		return med >= s.Percentile(0) && med <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("T1: demo", "paradigm", "bytes", "latency")
	tab.AddRow("CS", 5000, 1200*time.Millisecond)
	tab.AddRow("COD", float64(3400), 80*time.Millisecond)
	out := tab.String()
	if !strings.Contains(out, "T1: demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "paradigm") || !strings.Contains(out, "CS") {
		t.Errorf("missing content:\n%s", out)
	}
	if !strings.Contains(out, "1.2s") {
		t.Errorf("duration formatting:\n%s", out)
	}
	if tab.Rows() != 2 || tab.Cell(1, 0) != "COD" {
		t.Errorf("Rows/Cell accessors wrong")
	}
	if tab.Cell(9, 9) != "" {
		t.Error("out-of-range Cell should be empty")
	}
}

func TestTableAlignment(t *testing.T) {
	tab := NewTable("", "a", "bbbbbb")
	tab.AddRow("xxxxxxxx", 1)
	lines := strings.Split(strings.TrimRight(tab.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	// Header and data rows align: the second column starts at the same
	// offset in each line.
	hIdx := strings.Index(lines[0], "bbbbbb")
	dIdx := strings.Index(lines[2], "1")
	if hIdx != dIdx {
		t.Errorf("columns misaligned:\n%s", tab.String())
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("t", "x", "y")
	tab.AddRow(1, 2.5)
	tab.AddRow("a,b", 3)
	var sb strings.Builder
	tab.RenderCSV(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "x,y" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1,2.500" {
		t.Errorf("row = %q", lines[1])
	}
	if strings.Count(lines[2], ",") != 1 {
		t.Errorf("comma not sanitised: %q", lines[2])
	}
}

func TestFloatFormatting(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		2.5:     "2.500",
		0.00012: "0.00012",
	}
	for v, want := range cases {
		if got := formatCell(v); got != want {
			t.Errorf("formatCell(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestChartRender(t *testing.T) {
	ch := NewChart("delivery ratio", "nodes", "ratio")
	for i := 0; i <= 10; i++ {
		ch.Add("MA", float64(i), float64(i)/10)
		ch.Add("CS", float64(i), float64(i)/20)
	}
	out := ch.String()
	if !strings.Contains(out, "delivery ratio") || !strings.Contains(out, "* = MA") || !strings.Contains(out, "o = CS") {
		t.Errorf("chart output:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("chart missing data markers")
	}
}

func TestChartEmpty(t *testing.T) {
	ch := NewChart("empty", "x", "y")
	if out := ch.String(); !strings.Contains(out, "no data") {
		t.Errorf("empty chart output:\n%s", out)
	}
}

func TestChartSinglePoint(t *testing.T) {
	ch := NewChart("one", "x", "y")
	ch.Add("s", 5, 5)
	out := ch.String()
	if !strings.Contains(out, "*") {
		t.Errorf("single point missing:\n%s", out)
	}
}
