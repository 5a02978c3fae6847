// Package plot renders the experiment output: ASCII line charts standing in
// for the paper's figures and aligned-column tables for the numeric
// comparisons. The goal is that every figure of the paper can be eyeballed
// straight from a terminal (`go run ./cmd/phantom-suite -figures -filter fig3`).
package plot

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Chart renders one or more series over a common time window as an ASCII
// line chart.
type Chart struct {
	Title  string
	YLabel string
	// Width and Height are the plot area dimensions in characters
	// (defaults 72×16).
	Width  int
	Height int
	From   sim.Time
	To     sim.Time
	series []chartSeries
}

type chartSeries struct {
	s     *metrics.Series
	label string
	mark  byte
}

// seriesMarks are assigned to series in order of addition.
var seriesMarks = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// NewChart creates a chart spanning [from, to].
func NewChart(title, ylabel string, from, to sim.Time) *Chart {
	return &Chart{Title: title, YLabel: ylabel, Width: 72, Height: 16, From: from, To: to}
}

// Add includes a series in the chart, returning the chart for chaining.
func (c *Chart) Add(s *metrics.Series, label string) *Chart {
	mark := seriesMarks[len(c.series)%len(seriesMarks)]
	c.series = append(c.series, chartSeries{s: s, label: label, mark: mark})
	return c
}

// Render draws the chart.
func (c *Chart) Render() string {
	if len(c.series) == 0 || c.To <= c.From {
		return c.Title + " (no data)\n"
	}
	w, h := c.Width, c.Height
	if w < 16 {
		w = 16
	}
	if h < 4 {
		h = 4
	}

	// Resample every series to the plot width and find the y range.
	cols := make([][]float64, len(c.series))
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for i, cs := range c.series {
		pts := cs.s.Resample(c.From, c.To, w-1)
		col := make([]float64, len(pts))
		for j, p := range pts {
			col[j] = p.V
			if p.V < ymin {
				ymin = p.V
			}
			if p.V > ymax {
				ymax = p.V
			}
		}
		cols[i] = col
	}
	if ymin > 0 && ymin < ymax/4 {
		ymin = 0 // anchor at zero unless the data is far from it
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for i := range c.series {
		for x, v := range cols[i] {
			frac := (v - ymin) / (ymax - ymin)
			row := h - 1 - int(math.Round(frac*float64(h-1)))
			if row < 0 {
				row = 0
			}
			if row >= h {
				row = h - 1
			}
			grid[row][x] = c.series[i].mark
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", c.Title)
	legend := make([]string, len(c.series))
	for i, cs := range c.series {
		legend[i] = fmt.Sprintf("%c=%s", cs.mark, cs.label)
	}
	fmt.Fprintf(&b, "%s   [%s]\n", c.YLabel, strings.Join(legend, "  "))
	for r := 0; r < h; r++ {
		y := ymax - (ymax-ymin)*float64(r)/float64(h-1)
		fmt.Fprintf(&b, "%10s |%s\n", compact(y), string(grid[r]))
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", w))
	fmt.Fprintf(&b, "%10s  %-*s%s\n", "", w-8, c.From.String(), c.To.String())
	return b.String()
}

// compact formats a value tersely for axis labels.
func compact(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case av >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case av >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	case av >= 10 || av == 0 || av == math.Trunc(av):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Table renders rows of cells with aligned columns.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats tersely.
func (t *Table) AddRow(cells ...any) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = compact(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// Render draws the table.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, hd := range t.Headers {
		widths[i] = len(hd)
	}
	for _, r := range t.rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
