package cli

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TraceQueryOpts is one phantom-trace store/remote-mode invocation: the
// index-backed store query plus the output mode. Exactly the renderer is
// shared between -store (LocalSource) and -remote (RemoteSource), which is
// what makes their stdout byte-identical for the same filters.
type TraceQueryOpts struct {
	// Query carries the index-backed filters (experiment, sweep, name,
	// component, window); pushdown happens wherever the source lives.
	Query store.Query
	// Counters prints the merged telemetry counters of the matching runs.
	Counters bool
	// Results prints per-metric aggregates of the matching run summaries.
	Results bool
	// Kind and Detail are trace-mode substring post-filters.
	Kind, Detail string
	// Summary prints per-(component, kind) trace stats instead of events.
	Summary bool
	// JSON re-emits matching trace events as JSONL.
	JSON bool
}

// RunTraceQuery answers one query from src and renders it to w. Mode
// selection mirrors phantom-trace: -series wins, then -counters, then
// -results, else trace events.
func RunTraceQuery(w io.Writer, src api.QuerySource, o TraceQueryOpts) error {
	switch {
	case o.Query.Name != "":
		return printSeries(w, src, o.Query)
	case o.Counters:
		return printCounters(w, src, o.Query)
	case o.Results:
		return printResults(w, src, o.Query)
	default:
		return runTraceEvents(w, src, o)
	}
}

// PrintScanStats renders the post-query scan report (the -scan-stats
// stderr line). Non-zero live or fan-out counts get called out so a
// partial answer (a still-growing campaign) is visible.
func PrintScanStats(w io.Writer, prog string, s api.QueryStats) {
	fmt.Fprintf(w, "%s: %d files (%d skipped), %d blocks: scanned %d, skipped %d, read %d bytes",
		prog, s.Files, s.FilesSkipped, s.Blocks, s.BlocksScanned, s.BlocksSkipped, s.BytesRead)
	if s.FilesInProgress > 0 {
		fmt.Fprintf(w, " (%d files still being written)", s.FilesInProgress)
	}
	if s.Jobs > 0 {
		fmt.Fprintf(w, " across %d jobs", s.Jobs)
	}
	fmt.Fprintln(w)
}

// printSeries streams series points as "experiment sweep time value" rows.
func printSeries(w io.Writer, src api.QuerySource, q store.Query) error {
	return src.Series(q, func(c store.SeriesChunk) error {
		for _, p := range c.Points {
			fmt.Fprintf(w, "%-24s %4d %14s %g\n", c.Experiment, c.Sweep, p.T, p.V)
		}
		return nil
	})
}

// printCounters merges every matching run's telemetry snapshot (sum for
// counters, max for _peak gauges) and renders the totals.
func printCounters(w io.Writer, src api.QuerySource, q store.Query) error {
	total := map[string]uint64{}
	runs := 0
	err := src.Counters(q, func(rc store.RunCounters) error {
		telemetry.Merge(total, rc.Map())
		runs++
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d runs\n", runs)
	_, err = telemetry.WriteText(w, total, "  ")
	return err
}

// printResults aggregates the scalar summary metrics of every matching
// run: per metric, the run count, mean, min and max.
func printResults(w io.Writer, src api.QuerySource, q store.Query) error {
	type agg struct {
		n        int
		sum      float64
		min, max float64
	}
	metrics := map[string]*agg{}
	runs := 0
	err := src.Summaries(q, func(rs store.RunSummary) error {
		runs++
		for i, name := range rs.Names {
			v := rs.Values[i]
			a, ok := metrics[name]
			if !ok {
				a = &agg{min: math.Inf(1), max: math.Inf(-1)}
				metrics[name] = a
			}
			a.n++
			a.sum += v
			a.min = math.Min(a.min, v)
			a.max = math.Max(a.max, v)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d runs\n", runs)
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(w, "  %-32s %6s %14s %14s %14s\n", "metric", "runs", "mean", "min", "max")
	}
	for _, name := range names {
		a := metrics[name]
		fmt.Fprintf(w, "  %-32s %6d %14.6g %14.6g %14.6g\n", name, a.n, a.sum/float64(a.n), a.min, a.max)
	}
	return nil
}

// runTraceEvents streams trace events through the selected output path.
// Kind/detail substrings are post-filters on the returned events — local
// and remote answers carry the same rows, so the filter result matches.
// The store answers run by run; consecutive chunks of one (experiment,
// sweep) are one run's events.
func runTraceEvents(w io.Writer, src api.QuerySource, o TraceQueryOpts) error {
	post := trace.Query{Kind: o.Kind, Detail: o.Detail}
	var runs [][]trace.Event
	var prev store.TraceChunk
	err := src.Trace(o.Query, func(c store.TraceChunk) error {
		if len(runs) == 0 || c.Experiment != prev.Experiment || c.Sweep != prev.Sweep {
			runs = append(runs, nil)
		}
		prev = c
		runs[len(runs)-1] = append(runs[len(runs)-1], trace.SelectEvents(c.Events, post)...)
		return nil
	})
	if err != nil {
		return err
	}
	if o.Summary {
		printTraceSummary(w, runs)
		return nil
	}
	for _, events := range runs {
		if o.JSON {
			if err := trace.WriteJSONL(w, events); err != nil {
				return err
			}
			continue
		}
		for _, e := range events {
			fmt.Fprintln(w, e.String())
		}
	}
	return nil
}

// RunCrossQuery renders a cross-job aggregation from a daemon: per-metric
// summary aggregates (kind "summary") or merged telemetry counters (kind
// "counters") over the selected jobs' stores.
func RunCrossQuery(w io.Writer, c *api.Client, kind string, jobs []string, q store.Query) (api.QueryStats, error) {
	switch kind {
	case "summary":
		first := true
		stats, err := c.CrossSummaries(jobs, q, func(row api.AggregateRow) error {
			if first {
				fmt.Fprintf(w, "%-24s %6s %-32s %6s %14s %14s %14s\n",
					"experiment", "sweep", "metric", "runs", "mean", "min", "max")
				first = false
			}
			fmt.Fprintf(w, "%-24s %6d %-32s %6d %14.6g %14.6g %14.6g\n",
				row.Experiment, row.Sweep, row.Metric, row.Runs, row.Mean, row.Min, row.Max)
			return nil
		})
		if err != nil {
			return stats, err
		}
		if first {
			fmt.Fprintln(w, "no matching runs")
		}
		return stats, nil
	case "counters":
		stats, err := c.CrossCounters(jobs, q, func(row api.CountersRow) error {
			fmt.Fprintf(w, "%s sweep %d: %d runs\n", row.Experiment, row.Sweep, row.Runs)
			_, err := telemetry.WriteText(w, row.Counters, "  ")
			return err
		})
		return stats, err
	default:
		return api.QueryStats{}, fmt.Errorf("bad cross-query kind %q (want summary or counters)", kind)
	}
}

// printTraceSummary renders per-(component, kind) counts and event rates
// over runs, each one run's events. A group's rate is its events over the
// sum of its per-run spans (first to last event in each run), so a sweep of
// identical runs reads the rate of one; the total line sums the runs' spans
// the same way.
func printTraceSummary(w io.Writer, runs [][]trace.Event) {
	type stats struct {
		count       int
		first, last sim.Time     // over every run
		span        sim.Duration // summed per-run spans
	}
	groups := map[string]*stats{}
	total, nruns := 0, 0
	var span sim.Duration
	for _, events := range runs {
		if len(events) == 0 {
			continue
		}
		type window struct{ first, last sim.Time }
		inRun := map[string]window{}
		first, last := events[0].T, events[0].T
		for i := range events {
			e := &events[i]
			key := e.Component + "\x00" + e.Kind
			g, ok := groups[key]
			if !ok {
				g = &stats{first: e.T, last: e.T}
				groups[key] = g
			}
			g.count++
			g.first, g.last = min(g.first, e.T), max(g.last, e.T)
			r, ok := inRun[key]
			if !ok {
				r = window{e.T, e.T}
			}
			inRun[key] = window{min(r.first, e.T), max(r.last, e.T)}
			first, last = min(first, e.T), max(last, e.T)
		}
		for key, r := range inRun {
			groups[key].span += r.last.Sub(r.first)
		}
		total, nruns, span = total+len(events), nruns+1, span+last.Sub(first)
	}
	if total == 0 {
		fmt.Fprintln(w, "0 events")
		return
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-16s %-12s %10s %12s %12s %12s\n",
		"component", "kind", "count", "first", "last", "rate/s")
	for _, k := range keys {
		g := groups[k]
		sep := strings.IndexByte(k, 0)
		comp, kind := k[:sep], k[sep+1:]
		rate := 0.0
		if g.span > 0 {
			rate = float64(g.count) / g.span.Seconds()
		}
		fmt.Fprintf(w, "%-16s %-12s %10d %12s %12s %12.1f\n",
			comp, kind, g.count, g.first, g.last, rate)
	}
	fmt.Fprintf(w, "\n%d events over %v of simulated time in %d run(s)\n", total, time.Duration(span), nruns)
}
