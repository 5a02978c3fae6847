// Command phantom-trace inspects recorded observability data: a phantomdb
// campaign directory written by -store, or — with -remote — a
// phantom-serve daemon's analytics endpoints over the same filters.
//
// Store mode (-store dir) queries the columnar campaign store without
// loading it: the block index narrows by experiment, sweep, component and
// time window first, and only matching blocks are decompressed. Kind and
// detail are substring post-filters on the decoded events, which print
// one per line, summarize per (component, kind), or re-emit as JSONL.
//
// Remote mode (-remote addr -job id) runs the same query against a
// daemon's job store; the daemon does the pushdown and streams rows back,
// and the output is byte-identical to running -store against the same
// campaign directory. Without -job, -counters and -results fan out over
// every job store on the daemon (cross-job aggregation).
//
// Usage:
//
//	phantom-trace -store dir [flags]
//	phantom-trace -remote addr [-job id] [flags]
//
//	-component s   exact component name
//	-kind s        substring match on the event kind (e.g. 'drop', 'rate')
//	-detail s      substring match on the formatted fields ('vc=3')
//	-from d        window start in simulated time (e.g. 100ms)
//	-to d          window end in simulated time (0 = unbounded)
//	-summary       per-(component, kind) event counts and rates
//	-json          re-emit the selected events as JSONL on stdout
//
//	-store dir     query a phantomdb campaign directory
//	-remote addr   query a phantom-serve daemon
//	-job id        daemon job whose store to query (remote mode)
//	-experiment s  exact experiment id filter
//	-sweep n       sweep index, -1 = all
//	-series name   print the named series' points instead of trace events
//	-counters      print the campaign's merged telemetry counters
//	-results       print per-metric aggregates of the run summaries
//	-scan-stats    report blocks scanned vs skipped on stderr after the query
//
// Exit status is 0 even when nothing matches (an empty selection is an
// answer); 1 on unreadable input; 2 without -store or -remote.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/api"
	"repro/internal/cli"
	"repro/internal/sim"
	"repro/internal/store"
)

func main() {
	var (
		component = flag.String("component", "", "exact component name")
		kind      = flag.String("kind", "", "substring match on the event kind")
		detail    = flag.String("detail", "", "substring match on the formatted fields")
		from      = flag.Duration("from", 0, "window start in simulated time (e.g. 100ms)")
		to        = flag.Duration("to", 0, "window end in simulated time (0 = unbounded)")
		summary   = flag.Bool("summary", false, "print per-(component, kind) counts and rates instead of events")
		jsonOut   = flag.Bool("json", false, "re-emit the selected events as JSONL")

		storeDir  = flag.String("store", "", "query a phantomdb campaign directory")
		remote    = flag.String("remote", "", "query a phantom-serve daemon at this address")
		jobID     = flag.String("job", "", "daemon job whose store to query (remote mode)")
		exp       = flag.String("experiment", "", "exact experiment id filter")
		sweep     = flag.Int("sweep", store.AnySweep, "sweep index, -1 = all")
		series    = flag.String("series", "", "print the named series' points instead of trace events")
		counters  = flag.Bool("counters", false, "print the campaign's merged telemetry counters")
		results   = flag.Bool("results", false, "print per-metric aggregates of the run summaries")
		scanStats = flag.Bool("scan-stats", false, "report blocks scanned vs skipped on stderr")
	)
	flag.Parse()

	if (*storeDir == "") == (*remote == "") || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: phantom-trace -store dir | -remote addr [-job id] [flags] (exactly one of -store and -remote, no file arguments)")
		flag.Usage()
		os.Exit(2)
	}

	q := store.Query{
		Experiment: *exp,
		Name:       *series,
		Sweep:      *sweep,
		From:       sim.Time(*from),
		To:         sim.Time(*to),
	}
	if *series == "" && !*counters && !*results {
		q.Component = *component
	}
	o := cli.TraceQueryOpts{
		Query: q, Counters: *counters, Results: *results,
		Kind: *kind, Detail: *detail, Summary: *summary, JSON: *jsonOut,
	}

	var src api.QuerySource
	switch {
	case *storeDir != "":
		r, err := store.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		src = api.LocalSource{Reader: r}
	case *jobID != "":
		src = &api.RemoteSource{C: api.NewClient(*remote), Job: *jobID}
	default:
		// Cross-job mode: aggregate over every job store on the daemon.
		if *series != "" || !(*counters || *results) {
			fatal(fmt.Errorf("-remote without -job supports only -counters and -results (cross-job aggregation); use -job for series and traces"))
		}
		kind := "summary"
		if *counters {
			kind = "counters"
		}
		stats, err := cli.RunCrossQuery(os.Stdout, api.NewClient(*remote), kind, nil, q)
		if err != nil {
			fatal(err)
		}
		if *scanStats {
			cli.PrintScanStats(os.Stderr, "phantom-trace", stats)
		}
		return
	}
	if err := cli.RunTraceQuery(os.Stdout, src, o); err != nil {
		fatal(err)
	}
	if *scanStats {
		cli.PrintScanStats(os.Stderr, "phantom-trace", src.Stats())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phantom-trace:", err)
	os.Exit(1)
}
