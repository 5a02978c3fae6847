// Command phantom-suite runs the whole reproduction suite (E01–E22 and the
// A-series ablations) as a parallel fleet — one simulation engine per worker
// goroutine — and checks every experiment's summary metrics against the
// golden baselines in testdata/golden/.
//
// Usage:
//
//	phantom-suite [flags]
//
//	-filter regex   run only experiments whose ID matches (e.g. 'E0[1-5]');
//	                a paper reference (fig3, table2, quench, ...) stands
//	                for the experiment that reproduces it
//	-figures        print each matched experiment's figures, tables and
//	                notes (with -json, its full result) instead of the
//	                golden report; runs here, one experiment at a time
//	-j N            worker count (default GOMAXPROCS)
//	-duration d     override every experiment's simulated duration
//	-quick          use the reduced-duration profile (the golden baseline
//	                profile; also what the benchmarks use)
//	-sweep N        run each matched experiment at N seeded sweep points
//	-golden dir     golden directory (default testdata/golden)
//	-update-golden  rewrite the golden baselines from this run
//	-telemetry      give every job a counter registry; report per-experiment
//	                counters and fleet totals
//	-store d        record every job on a flight recorder and append every
//	                run's results (summary metrics, counters when
//	                -telemetry is on, trace events) to the phantomdb
//	                campaign directory d; query it with phantom-trace -store
//	-http addr      serve live fleet progress while the suite runs:
//	                /status (JSON) and /metrics (Prometheus text)
//	-submit addr    send the suite as a job to a phantom-serve daemon and
//	                stream the results back instead of running locally;
//	                golden comparison still happens here, against the local
//	                golden directory
//	-json           machine-readable output (the schema-v3 api.Report)
//	-list           list matching experiments and exit
//	-v              print each experiment's notes
//
// The same api.JobSpec drives both paths: locally it expands onto this
// process's fleet, remotely it is POSTed to /v1/jobs verbatim. Results are
// bit-identical either way (seeds derive from experiment ID and sweep
// index), which is why remote runs can still be checked against local
// goldens.
//
// The suite exits non-zero when any experiment fails or any metric drifts
// beyond its tolerance from the golden baseline. Baselines are recorded at a
// specific simulated duration; runs at other durations skip the comparison
// rather than reporting false drift. Telemetry and tracing observe runs
// without perturbing them: metric results (and hence golden comparison) are
// bit-identical with the flags on or off.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/api"
	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	c := cli.New("phantom-suite",
		cli.FlagFilter|cli.FlagWorkers|cli.FlagDuration|cli.FlagQuick|cli.FlagJSON|
			cli.FlagProfile|cli.FlagTelemetry|cli.FlagStore|cli.FlagHTTP|cli.FlagSubmit|cli.FlagShards)
	var (
		goldenDir    = flag.String("golden", "testdata/golden", "golden baseline directory")
		updateGolden = flag.Bool("update-golden", false, "rewrite golden baselines from this run")
		sweep        = flag.Int("sweep", 0, "run each matched experiment at this many seeded sweep points")
		list         = flag.Bool("list", false, "list matching experiments and exit")
		verbose      = flag.Bool("v", false, "print experiment notes")
		figures      = flag.Bool("figures", false, "print each matched experiment's figures, tables and notes instead of the golden report")
	)
	c.Parse()
	var code int
	switch {
	case *figures && (*list || *updateGolden || *sweep > 0 || c.Submit != "" || c.HTTPAddr != ""):
		fmt.Fprintln(os.Stderr, "phantom-suite: -figures prints results of local, sequential runs; it does not combine with -list, -update-golden, -sweep, -submit or -http")
		code = 2
	case *figures:
		code = printFigures(c)
	default:
		code = run(c, *goldenDir, *updateGolden, *sweep, *list, *verbose)
	}
	c.Close()
	os.Exit(code)
}

// printFigures runs every matched experiment through cli.RunExperiment: the
// paper's figures as ASCII charts, the tables, the notes.
func printFigures(c *cli.Common) int {
	re := c.FilterRegexp()
	matched := false
	var err error
	exp.Walk(func(d exp.Definition) bool {
		if re.MatchString(d.ID) {
			matched = true
			err = c.RunExperiment(d.ID)
		}
		return err == nil
	})
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "phantom-suite:", err)
		return 1
	case !matched:
		fmt.Fprintln(os.Stderr, "phantom-suite: no experiments match the filter")
		return 2
	}
	return 0
}

func run(c *cli.Common, goldenDir string, updateGolden bool, sweep int, list, verbose bool) int {
	if list {
		re := c.FilterRegexp()
		n := 0
		exp.Walk(func(d exp.Definition) bool {
			if re.MatchString(d.ID) {
				fmt.Printf("%s  %-18s  %s\n", d.ID, d.PaperRef, d.Title)
				n++
			}
			return true
		})
		if n == 0 {
			fmt.Fprintln(os.Stderr, "phantom-suite: no experiments match the filter")
			return 2
		}
		return 0
	}

	// One spec drives both paths: expanded onto the local fleet, or POSTed
	// verbatim to a daemon with -submit.
	spec := api.JobSpec{
		SchemaVersion: api.SchemaVersion,
		Kind:          api.KindSuite,
		Suite: &api.SuiteSpec{
			Filter:     c.Filter,
			Quick:      c.Quick,
			DurationNS: int64(c.Duration),
			Sweep:      sweep,
		},
		Workers:   c.Workers,
		Telemetry: c.Telemetry,
		Shards:    c.Shards,
	}

	var rep *api.Report
	if c.Submit != "" {
		if c.StoreDir != "" {
			fmt.Fprintln(os.Stderr, "phantom-suite: -store is a local sink; with -submit the daemon persists runs under its own -data root")
			return 2
		}
		var err error
		rep, err = submit(c, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "phantom-suite:", err)
			return 2
		}
	} else {
		var code int
		rep, code = runLocal(c, spec, verbose)
		if rep == nil {
			return code
		}
	}

	// Golden comparison is always client-side, against the local golden
	// directory: the daemon doesn't know (or need) the baselines.
	exitCode, err := goldenPass(rep.Results, goldenDir, updateGolden)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phantom-suite:", err)
		return 2
	}
	if rep.Job != nil && rep.Job.State != api.JobDone {
		exitCode = 1
	}

	if c.JSON {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "phantom-suite:", err)
			return 2
		}
		fmt.Println(string(b))
		return exitCode
	}
	render(rep, verbose)
	return exitCode
}

// runLocal expands the spec onto this process's own fleet.
func runLocal(c *cli.Common, spec api.JobSpec, verbose bool) (*api.Report, int) {
	expn, err := api.Expand(spec, api.Env{
		// The store persists trace events, so -store records every job.
		// Tracing never alters results.
		Trace:        c.StoreDir != "",
		TraceRingCap: cli.TraceRingCap,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "phantom-suite:", err)
		return nil, 2
	}
	hook := func(id string, phase exp.Phase, err error) {
		if !c.JSON && phase == exp.PhaseFailed {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", id, err)
		}
	}
	fleet := &runner.Fleet{Workers: c.Workers, Hook: hook, Telemetry: c.Telemetry}
	sw, err := c.OpenStore()
	if err != nil {
		fmt.Fprintln(os.Stderr, "phantom-suite: -store:", err)
		return nil, 2
	}
	fleet.Store = sw
	if c.HTTPAddr != "" {
		state := cli.NewLiveState(len(expn.Jobs))
		state.SetPprof(c.Pprof)
		cli.AttachLive(fleet, state)
		stop, err := cli.ServeLive(c.HTTPAddr, state)
		if err != nil {
			fmt.Fprintln(os.Stderr, "phantom-suite: -http:", err)
			return nil, 2
		}
		defer stop()
	}
	results, stats := fleet.Run(expn.Jobs)
	if fleet.Store != nil {
		if err := fleet.Store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "phantom-suite: -store:", err)
			return nil, 2
		}
	}
	if verbose {
		for _, r := range results {
			if r.Panicked {
				fmt.Fprintln(os.Stderr, r.Stack)
			}
		}
	}
	return expn.Finish(results, stats), 0
}

// submit POSTs the spec to the phantom-serve daemon and streams the runs
// back into a report shaped exactly like a local run's.
func submit(c *cli.Common, spec api.JobSpec) (*api.Report, error) {
	client := api.NewClient(c.Submit)
	st, err := client.Submit(spec)
	if err != nil {
		return nil, err
	}
	if !c.JSON {
		fmt.Fprintf(os.Stderr, "submitted %s (%d runs) to %s\n", st.ID, st.Total, client.Base)
	}
	var results []api.RunResult
	rep, err := client.Results(st.ID, func(rr api.RunResult) {
		results = append(results, rr)
	})
	if err != nil {
		return nil, err
	}
	rep.Results = results
	return rep, nil
}

// goldenPass compares (or, with update, rewrites) every successful run
// against the golden baselines, filling Golden/Drifts in place. The
// returned code is 1 when any run failed, was canceled, or drifted.
func goldenPass(results []api.RunResult, dir string, update bool) (int, error) {
	tol := runner.DefaultTolerance()
	code := 0
	for i := range results {
		rr := &results[i]
		if rr.Error != "" || rr.Canceled {
			code = 1
			continue
		}
		snap := runner.Snapshot{ID: rr.ID, SimNanos: rr.SimNS, Seed: rr.Seed, Summary: rr.Summary}
		if update {
			if err := snap.WriteFile(dir); err != nil {
				return 2, fmt.Errorf("write golden: %w", err)
			}
			rr.Golden = "updated"
			continue
		}
		want, err := runner.ReadSnapshot(dir, rr.ID)
		switch {
		case errors.Is(err, os.ErrNotExist):
			rr.Golden = "none"
		case err != nil:
			return 2, err
		case want.SimNanos != snap.SimNanos:
			rr.Golden = "skipped" // baseline recorded at a different duration
		default:
			drifts := runner.Compare(snap, want, tol)
			if len(drifts) == 0 {
				rr.Golden = "ok"
			} else {
				rr.Golden = "drift"
				code = 1
				for _, d := range drifts {
					rr.Drifts = append(rr.Drifts, d.String())
				}
			}
		}
	}
	return code, nil
}

// render prints the human-readable report: one line per run in ID order,
// then the fleet totals.
func render(rep *api.Report, verbose bool) {
	rows := append([]api.RunResult(nil), rep.Results...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	for _, rr := range rows {
		status := "ok"
		switch {
		case rr.Canceled:
			status = "CANC"
		case rr.Error != "":
			status = "FAIL"
		}
		golden := rr.Golden
		if golden == "" {
			golden = "n/a"
		}
		fmt.Printf("%-6s %-4s %8.0fms sim=%-8v golden=%s\n",
			rr.ID, status, rr.WallMS, sim.Duration(rr.SimNS), golden)
		for _, d := range rr.Drifts {
			fmt.Printf("       drift: %s\n", d)
		}
		if rr.Error != "" {
			fmt.Printf("       error: %s\n", rr.Error)
		}
		if verbose {
			for _, n := range rr.Notes {
				fmt.Printf("       • %s\n", n)
			}
		}
	}
	st := rep.Stats
	speedup, simPerWall, allocsPerRun := 0.0, 0.0, 0.0
	if st.WallMS > 0 {
		speedup = st.WorkMS / st.WallMS
		simPerWall = st.SimSeconds / (st.WallMS / 1000)
	}
	if st.Runs > 0 {
		allocsPerRun = float64(st.Mallocs) / float64(st.Runs)
	}
	fmt.Printf("\n%d experiments, %d failed · wall %.0fms · work %.0fms · work/wall %.2fx (j=%d) · %.1f sim-s/wall-s · %.0f allocs/run (%.1f MB)\n",
		st.Runs, st.Failed, st.WallMS, st.WorkMS, speedup, st.Workers,
		simPerWall, allocsPerRun, float64(st.AllocBytes)/1e6)
	if rep.Job != nil {
		fmt.Printf("daemon job %s: state=%s", rep.Job.ID, rep.Job.State)
		if rep.Job.Store != "" {
			fmt.Printf(" store=%s", rep.Job.Store)
		}
		if rep.Job.Error != "" {
			fmt.Printf(" error=%s", rep.Job.Error)
		}
		fmt.Println()
	}
	if len(st.Counters) > 0 {
		fmt.Println("\nfleet counter totals:")
		telemetry.WriteText(os.Stdout, st.Counters, "  ")
	}
}
