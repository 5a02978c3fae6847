package plot

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func rampSeries(name string, n int) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i := 0; i < n; i++ {
		s.Add(sim.Time(i)*sim.Time(sim.Millisecond), float64(i))
	}
	return s
}

func TestChartRenderBasics(t *testing.T) {
	s := rampSeries("ramp", 100)
	c := NewChart("Fig X", "cells", 0, sim.Time(99*sim.Millisecond)).Add(s, "queue")
	out := c.Render()
	if !strings.Contains(out, "Fig X") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "*=queue") {
		t.Fatal("missing legend")
	}
	lines := strings.Split(out, "\n")
	// Title + legend + 16 rows + axis + time labels.
	if len(lines) < 20 {
		t.Fatalf("only %d lines", len(lines))
	}
	if !strings.Contains(out, "*") {
		t.Fatal("no data marks")
	}
	// A rising ramp puts a mark in the first column of the bottom data row
	// and the last column of the top data row.
	var dataRows []string
	for _, l := range lines {
		if i := strings.IndexByte(l, '|'); i >= 0 {
			dataRows = append(dataRows, l[i+1:])
		}
	}
	if len(dataRows) != 16 {
		t.Fatalf("data rows = %d", len(dataRows))
	}
	if !strings.HasPrefix(dataRows[len(dataRows)-1], "*") {
		t.Fatalf("bottom-left mark missing: %q", dataRows[len(dataRows)-1])
	}
	if !strings.HasSuffix(strings.TrimRight(dataRows[0], " "), "*") {
		t.Fatalf("top-right mark missing: %q", dataRows[0])
	}
}

func TestChartMultiSeriesMarks(t *testing.T) {
	a, b := rampSeries("a", 10), rampSeries("b", 10)
	out := NewChart("T", "y", 0, sim.Time(9*sim.Millisecond)).Add(a, "A").Add(b, "B").Render()
	if !strings.Contains(out, "*=A") || !strings.Contains(out, "+=B") {
		t.Fatalf("legend marks wrong:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	out := NewChart("Empty", "y", 0, 100).Render()
	if !strings.Contains(out, "no data") {
		t.Fatalf("empty chart output: %q", out)
	}
	out = NewChart("Bad window", "y", 100, 0).Add(rampSeries("x", 5), "x").Render()
	if !strings.Contains(out, "no data") {
		t.Fatalf("inverted window output: %q", out)
	}
}

func TestChartFlatSeries(t *testing.T) {
	s := &metrics.Series{Name: "flat"}
	s.Add(0, 5)
	s.Add(100, 5)
	out := NewChart("Flat", "y", 0, 100).Add(s, "f").Render()
	if !strings.Contains(out, "*") {
		t.Fatal("flat series not drawn")
	}
}

func TestCompact(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"}, {3, "3"}, {2.5, "2.50"}, {42, "42"},
		{15000, "15.0k"}, {2.5e6, "2.5M"}, {3e9, "3.0G"},
	}
	for _, c := range cases {
		if got := compact(c.v); got != c.want {
			t.Errorf("compact(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Results", "alg", "rate", "queue")
	tb.AddRow("Phantom", 12345.0, 42)
	tb.AddRow("EPRCA", 99.0, 1000)
	out := tb.Render()
	if !strings.Contains(out, "Results") || !strings.Contains(out, "Phantom") {
		t.Fatalf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns align: header and rows have the same prefix width before col 2.
	if !strings.Contains(lines[1], "alg") || !strings.Contains(lines[2], "---") {
		t.Fatalf("header/separator wrong:\n%s", out)
	}
	if !strings.Contains(out, "12.3k") {
		t.Fatalf("float not compacted:\n%s", out)
	}
}
