package plot

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestSVGRender(t *testing.T) {
	a, b := rampSeries("a", 50), rampSeries("b", 50)
	out := NewSVG("Fig 3", "cells/s", 0, sim.Time(49*sim.Millisecond)).
		Add(a, "s1").Add(b, "s2").Render()
	for _, want := range []string{
		"<svg", "</svg>", "Fig 3", "polyline", "s1", "s2", "cells/s",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("SVG missing %q:\n%.300s", want, out)
		}
	}
	// Two series → two polylines with distinct colours.
	if strings.Count(out, "<polyline") != 2 {
		t.Fatalf("polylines = %d", strings.Count(out, "<polyline"))
	}
	if !strings.Contains(out, svgPalette[0]) || !strings.Contains(out, svgPalette[1]) {
		t.Fatal("palette colours missing")
	}
}

func TestSVGEmpty(t *testing.T) {
	out := NewSVG("Empty", "y", 0, 100).Render()
	if !strings.Contains(out, "no data") {
		t.Fatalf("empty chart: %q", out)
	}
}

func TestSVGEscapesLabels(t *testing.T) {
	s := rampSeries("s", 5)
	out := NewSVG(`a<b & "c"`, "y", 0, sim.Time(4*sim.Millisecond)).Add(s, "x>y").Render()
	if strings.Contains(out, "a<b") || !strings.Contains(out, "a&lt;b") {
		t.Fatal("title not escaped")
	}
	if !strings.Contains(out, "x&gt;y") {
		t.Fatal("label not escaped")
	}
}

func TestCSVExport(t *testing.T) {
	a := &metrics.Series{Name: "a"}
	a.Add(0, 1)
	a.Add(sim.Time(5*sim.Millisecond), 2)
	b := &metrics.Series{Name: "b"}
	b.Add(0, 10)
	out := CSV(0, sim.Time(10*sim.Millisecond), 2, []*metrics.Series{a, b}, []string{"a", "b"})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "time_ms,a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "0.000,1,10" {
		t.Fatalf("row0 = %q", lines[1])
	}
	if lines[2] != "5.000,2,10" {
		t.Fatalf("row1 = %q", lines[2])
	}
}

func TestCSVValidation(t *testing.T) {
	if CSV(0, 100, 0, nil, nil) != "" {
		t.Fatal("degenerate CSV not empty")
	}
	a := &metrics.Series{Name: "a"}
	if CSV(0, 100, 2, []*metrics.Series{a}, []string{"a", "b"}) != "" {
		t.Fatal("mismatched labels accepted")
	}
}
