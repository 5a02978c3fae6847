// Command phantom-sim runs an arbitrary ATM topology described in the
// simconfig language on standard input and prints the standard figure
// triple (queue, fair-share estimate, session rates) plus a summary table.
// Queues and fair shares are labelled link<u>-<v> by the switches they join,
// whether the input spelled the topology nodes/edge or switches/trunk.
//
// Example:
//
//	phantom-sim <<'EOF'
//	switches 4
//	trunk 1 50
//	alg phantom u=5
//	session long 0 3 greedy
//	session narrow 1 2 greedy
//	duration 500ms
//	EOF
//
// Observability flags: -telemetry prints the run's counter snapshot, and
// -store appends the run (series, summary metrics, counters, trace events)
// to a phantomdb campaign directory under experiment id "sim" for
// phantom-trace -store.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simconfig"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// view is the render-side picture of a finished run: labeled series plus
// the summary inputs.
type view struct {
	algName  string
	sessions []string
	acr      []*metrics.Series
	goodput  []*metrics.Series
	// queues/fairShares hold only the recorded (non-nil) series.
	queues      []*metrics.Series
	queueLabels []string
	fairShares  []*metrics.Series
	fsLabels    []string
	oracle      []float64
	// lines are the per-link utilization/peak-queue summary rows.
	lines []string
	trace *trace.Tracer
}

func main() {
	c := cli.New("phantom-sim",
		cli.FlagQuiet|cli.FlagProfile|cli.FlagTelemetry|cli.FlagStore|cli.FlagShards)
	traceN := flag.Int("trace", 0, "dump the last N trace events after the run")
	svgDir := flag.String("svg", "", "write SVG figures into this directory")
	csvPath := flag.String("csv", "", "write all series as CSV to this file")
	c.Parse()

	spec, err := simconfig.Parse(os.Stdin)
	if err != nil {
		c.Fatal(err)
	}
	var tr *trace.Tracer
	if *traceN > 0 {
		tr = trace.New(*traceN)
	} else if c.StoreDir != "" {
		tr = trace.New(cli.TraceRingCap)
	}
	var reg *telemetry.Registry
	if c.Telemetry {
		reg = telemetry.New()
	}

	cfg := spec.Config
	cfg.Trace = tr
	cfg.Telemetry = reg
	if c.Shards != 0 {
		cfg.Shards = c.Shards
	}
	n, err := scenario.BuildGraph(cfg)
	if err != nil {
		c.Fatal(err)
	}
	n.Run(spec.Duration)
	end := n.Engine.Now()
	v, err := newView(spec, n)
	if err != nil {
		c.Fatal(err)
	}

	if !c.Quiet {
		render(v, end)
	}
	summarize(v, end)

	if *svgDir != "" {
		if err := writeSVGs(*svgDir, v, end); err != nil {
			c.Fatal(err)
		}
	}
	if *csvPath != "" {
		if err := writeCSV(*csvPath, v, end); err != nil {
			c.Fatal(err)
		}
	}
	if reg != nil {
		fmt.Println("\ntelemetry:")
		telemetry.WriteText(os.Stdout, reg.Snapshot(), "  ")
	}
	if c.StoreDir != "" {
		if err := storeRun(c, v, reg, tr, end); err != nil {
			c.Fatal(err)
		}
	}
	if *traceN > 0 {
		fmt.Printf("\ntrace (last %d of %d events):\n", v.trace.Len(), v.trace.Seen())
		if _, err := v.trace.WriteTo(os.Stdout); err != nil {
			c.Fatal(err)
		}
	}
	c.Close()
}

// storeRun persists the run under experiment id "sim": every recorded
// series (labeled as in the CSV export), the summary metrics, the counter
// snapshot and the retained trace events.
func storeRun(c *cli.Common, v *view, reg *telemetry.Registry, tr *trace.Tracer, end sim.Time) error {
	w, err := c.OpenStore()
	if err != nil {
		return err
	}
	seg := w.NewSegment(store.RunMeta{Experiment: "sim", End: end})
	for i, s := range v.acr {
		seg.AddSeries("acr_"+v.sessions[i], s.Points())
	}
	for i, s := range v.goodput {
		seg.AddSeries("goodput_"+v.sessions[i], s.Points())
	}
	for i, s := range v.queues {
		seg.AddSeries("queue_"+v.queueLabels[i], s.Points())
	}
	for i, s := range v.fairShares {
		seg.AddSeries("fairshare_"+v.fsLabels[i], s.Points())
	}
	seg.AddSummary(summaryMap(v, end))
	seg.AddCounters(reg.Snapshot())
	if tr != nil {
		seg.AddTrace(tr.Retained())
	}
	if err := w.Append(seg); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// summaryMap flattens the summary table into the scalar metrics the store
// persists per run.
func summaryMap(v *view, end sim.Time) map[string]float64 {
	from := end - sim.Time(float64(end)*0.25)
	m := make(map[string]float64, 3*len(v.sessions)+1)
	var got []float64
	for i, name := range v.sessions {
		g := v.goodput[i].TimeAvg(from, end)
		got = append(got, g)
		m["goodput_"+name] = g
		m["oracle_"+name] = v.oracle[i]
		m["final_acr_"+name] = v.acr[i].Last()
	}
	m["jain_normalized"] = metrics.NormalizedJainIndex(got, v.oracle)
	return m
}

func newView(spec *simconfig.Spec, n *scenario.GraphNet) (*view, error) {
	oracle, err := n.MaxMinOracle()
	if err != nil {
		return nil, err
	}
	v := &view{algName: spec.AlgName, acr: n.ACR, goodput: n.Goodput,
		oracle: oracle, trace: n.Config.Trace}
	for _, s := range n.Config.Sessions {
		v.sessions = append(v.sessions, s.Name)
	}
	// Directed link 2k is edge k's U→V direction, 2k+1 the reverse; label
	// by endpoints. Only links on some forward path are recorded.
	label := func(l int) string {
		e := n.Config.Edges[l/2]
		u, w := e.U, e.V
		if l%2 == 1 {
			u, w = w, u
		}
		return fmt.Sprintf("link%d-%d", u, w)
	}
	for l, s := range n.LinkQueue {
		if s == nil {
			continue
		}
		v.queues = append(v.queues, s)
		v.queueLabels = append(v.queueLabels, label(l))
		v.lines = append(v.lines, fmt.Sprintf("%s: utilization %.1f%%, peak queue %d cells",
			label(l), 100*n.LinkUtilization(l), n.PeakLinkQueue(l)))
	}
	for l, s := range n.FairShare {
		if s != nil {
			v.fairShares = append(v.fairShares, s)
			v.fsLabels = append(v.fsLabels, label(l))
		}
	}
	return v, nil
}

// render prints the figure triple.
func render(v *view, end sim.Time) {
	q := plot.NewChart("queue length", "cells", 0, end)
	for i, s := range v.queues {
		q.Add(s, v.queueLabels[i])
	}
	fmt.Println(q.Render())

	if len(v.fairShares) > 0 {
		fs := plot.NewChart("fair-share estimate ("+v.algName+")", "cells/s", 0, end)
		for i, s := range v.fairShares {
			fs.Add(s, v.fsLabels[i])
		}
		fmt.Println(fs.Render())
	}

	acr := plot.NewChart("sessions' allowed rate", "cells/s", 0, end)
	for i, s := range v.acr {
		acr.Add(s, v.sessions[i])
	}
	fmt.Println(acr.Render())
}

// summarize prints the per-session table and per-link lines.
func summarize(v *view, end sim.Time) {
	from := end - sim.Time(float64(end)*0.25)
	tb := plot.NewTable("summary ("+v.algName+")",
		"session", "goodput(cells/s)", "max-min oracle", "ratio", "finalACR")
	var got []float64
	for i, name := range v.sessions {
		g := v.goodput[i].TimeAvg(from, end)
		got = append(got, g)
		tb.AddRow(name, g, v.oracle[i], g/v.oracle[i], v.acr[i].Last())
	}
	fmt.Println(tb.Render())
	fmt.Printf("normalized Jain vs oracle: %.4f\n", metrics.NormalizedJainIndex(got, v.oracle))
	for _, line := range v.lines {
		fmt.Println(line)
	}
}

// writeSVGs regenerates the figure triple as SVG files.
func writeSVGs(dir string, v *view, end sim.Time) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	q := plot.NewSVG("queue length", "cells", 0, end)
	for i, s := range v.queues {
		q.Add(s, v.queueLabels[i])
	}
	fs := plot.NewSVG("fair-share estimate ("+v.algName+")", "cells/s", 0, end)
	for i, s := range v.fairShares {
		fs.Add(s, v.fsLabels[i])
	}
	acr := plot.NewSVG("sessions' allowed rate", "cells/s", 0, end)
	for i, s := range v.acr {
		acr.Add(s, v.sessions[i])
	}
	for _, f := range []struct {
		name  string
		chart *plot.SVG
	}{{"queue.svg", q}, {"fairshare.svg", fs}, {"acr.svg", acr}} {
		if err := os.WriteFile(filepath.Join(dir, f.name), []byte(f.chart.Render()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", filepath.Join(dir, f.name))
	}
	return nil
}

// writeCSV exports every recorded series on a common grid.
func writeCSV(path string, v *view, end sim.Time) error {
	var series []*metrics.Series
	var labels []string
	for i, s := range v.acr {
		series = append(series, s)
		labels = append(labels, "acr_"+v.sessions[i])
	}
	for i, s := range v.queues {
		series = append(series, s)
		labels = append(labels, "queue_"+v.queueLabels[i])
	}
	for i, s := range v.fairShares {
		series = append(series, s)
		labels = append(labels, "fairshare_"+v.fsLabels[i])
	}
	out := plot.CSV(0, end, 1000, series, labels)
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
