// Command phantom-fuzz runs invariant-checking campaigns over generated
// scenarios: seeded draws from the scengen families (parking-lot chains,
// fat trees, Waxman meshes, flash crowds, web mixes, transient schedules)
// are built, run, and checked against the flow-control invariants (cell
// conservation, queue bounds, max-min envelope, settling, utilization).
//
// Campaigns are deterministic: scenario (family, index) always maps to the
// same seed — the fleet derivation — so output is bit-identical across runs
// and worker counts, and any finding can be replayed alone with -family and
// -seed.
//
//	phantom-fuzz -n 200                  # 200 scenarios per family
//	phantom-fuzz -family waxman -n 1000  # one family, deeper
//	phantom-fuzz -family waxman -seed 7  # replay one scenario, verbosely
//	phantom-fuzz -n 50 -crosscheck       # also diff each run against a re-run
//	phantom-fuzz -n 200 -minimize -freeze testdata/fuzz-regressions
//	phantom-fuzz -n 100 -telemetry -store out/fuzzdb  # persist every run
//	phantom-fuzz -n 500 -submit :8080    # run the campaign on a daemon
//
// The campaign is described by the same api.JobSpec the daemon speaks:
// -submit POSTs it to a phantom-serve instance and streams results back
// (violations included); determinism makes the remote findings identical
// to a local run's. -freeze and -minimize reproducer texts stay local-only
// (the wire carries violation strings, not scenario sources).
//
// With -telemetry the fleet's merged counter totals print after the
// campaign summary. With -store every scenario's summary, counter
// snapshot, and retained trace events land in a phantomdb campaign
// directory, readable with phantom-trace -store. -json emits the
// schema-v3 api.Report.
//
// Exit status is 1 when any scenario violated an invariant.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/api"
	"repro/internal/cli"
	"repro/internal/runner"
	"repro/internal/scengen"
	"repro/internal/simconfig"
	"repro/internal/telemetry"
)

func main() {
	c := cli.New("phantom-fuzz",
		cli.FlagWorkers|cli.FlagQuiet|cli.FlagJSON|cli.FlagProfile|
			cli.FlagTelemetry|cli.FlagStore|cli.FlagHTTP|cli.FlagSubmit)
	n := flag.Int("n", 100, "scenarios per family")
	familyName := flag.String("family", "", "restrict to one family (default all): parkinglot, fattree, waxman, flashcrowd, webmix, transient, shardedmesh")
	seedFlag := flag.Uint64("seed", 0, "replay exactly one scenario with this seed (requires -family)")
	minimize := flag.Bool("minimize", false, "shrink each failing scenario to a minimal reproducer")
	freezeDir := flag.String("freeze", "", "write failing scenarios as regression files into this directory")
	crossCheck := flag.Bool("crosscheck", false, "re-run every scenario on a fresh engine (and a sharded one single-engine) and compare fingerprints")
	c.Parse()

	if *seedFlag != 0 {
		if *familyName == "" {
			c.Fatal(fmt.Errorf("-seed needs -family to pick the generator"))
		}
		if c.Submit != "" {
			c.Fatal(fmt.Errorf("-seed replay is local-only (drop -submit)"))
		}
		fam, err := scengen.ParseFamily(*familyName)
		if err != nil {
			c.Fatal(err)
		}
		clean, err := replayOne(fam, *seedFlag, *minimize, *freezeDir)
		if err != nil {
			c.Fatal(err)
		}
		c.Close()
		if !clean {
			os.Exit(1)
		}
		return
	}

	spec := api.JobSpec{
		SchemaVersion: api.SchemaVersion,
		Kind:          api.KindFuzz,
		Fuzz:          &api.FuzzSpec{N: *n, CrossCheck: *crossCheck, Minimize: *minimize},
		Workers:       c.Workers,
		Telemetry:     c.Telemetry,
	}
	if *familyName != "" {
		spec.Fuzz.Families = []string{*familyName}
	}

	var code int
	if c.Submit != "" {
		code = runRemote(c, spec, *freezeDir)
	} else {
		code = runLocal(c, spec, *freezeDir)
	}
	c.Close()
	os.Exit(code)
}

// runLocal expands the campaign onto this process's own fleet: the same
// path the daemon takes, plus the local-only sinks (freeze dir, -store).
func runLocal(c *cli.Common, spec api.JobSpec, freezeDir string) int {
	expn, err := api.Expand(spec, api.Env{
		Trace:        c.StoreDir != "",
		TraceRingCap: cli.TraceRingCap,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "phantom-fuzz:", err)
		return 2
	}
	sw, err := c.OpenStore()
	if err != nil {
		fmt.Fprintln(os.Stderr, "phantom-fuzz:", err)
		return 2
	}
	fleet := &runner.Fleet{Workers: c.Workers, Telemetry: c.Telemetry, Store: sw}
	if c.HTTPAddr != "" {
		state := cli.NewLiveState(len(expn.Jobs))
		state.SetPprof(c.Pprof)
		cli.AttachLive(fleet, state)
		stop, err := cli.ServeLive(c.HTTPAddr, state)
		if err != nil {
			fmt.Fprintln(os.Stderr, "phantom-fuzz: -http:", err)
			return 2
		}
		defer stop()
	}
	results, stats := fleet.Run(expn.Jobs)
	if sw != nil {
		if err := sw.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "phantom-fuzz:", err)
			return 2
		}
	}
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "phantom-fuzz: %s: %v\n", r.Job.Name, r.Err)
			return 2
		}
	}
	rep := expn.Finish(results, stats)
	findings := expn.Findings()

	if c.JSON {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "phantom-fuzz:", err)
			return 2
		}
		fmt.Println(string(b))
	} else {
		crep := scengen.CampaignReport{Scenarios: len(results), Findings: findings}
		fmt.Print(crep.Summary())
		if !c.Quiet {
			fmt.Printf("wall %v, %.1fx parallel speedup\n",
				stats.Wall.Round(1000000), float64(stats.WorkWall)/float64(stats.Wall))
		}
		if len(stats.Counters) > 0 && !c.Quiet {
			fmt.Println("\nfleet counter totals:")
			telemetry.WriteText(os.Stdout, stats.Counters, "  ")
		}
	}
	if freezeDir != "" {
		for i := range findings {
			path, err := scengen.Freeze(&findings[i], freezeDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "phantom-fuzz:", err)
				return 2
			}
			if !c.JSON {
				fmt.Printf("froze %s\n", path)
			}
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// runRemote submits the campaign to a phantom-serve daemon and streams the
// results back. Findings arrive as violation strings on the run results.
func runRemote(c *cli.Common, spec api.JobSpec, freezeDir string) int {
	if freezeDir != "" || c.StoreDir != "" {
		fmt.Fprintln(os.Stderr, "phantom-fuzz: -freeze and -store are local sinks; drop them with -submit (the daemon persists runs under its own -data root)")
		return 2
	}
	client := api.NewClient(c.Submit)
	st, err := client.Submit(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phantom-fuzz:", err)
		return 2
	}
	if !c.JSON {
		fmt.Fprintf(os.Stderr, "submitted %s (%d scenarios) to %s\n", st.ID, st.Total, client.Base)
	}
	var results []api.RunResult
	rep, err := client.Results(st.ID, func(rr api.RunResult) {
		results = append(results, rr)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "phantom-fuzz:", err)
		return 2
	}
	rep.Results = results

	bad := 0
	for _, rr := range results {
		if len(rr.Violations) > 0 || rr.Error != "" || rr.Canceled {
			bad++
		}
	}
	if c.JSON {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "phantom-fuzz:", err)
			return 2
		}
		fmt.Println(string(b))
	} else {
		fmt.Printf("%d scenarios, %d findings\n", len(results), bad)
		for _, rr := range results {
			switch {
			case rr.Error != "":
				fmt.Printf("%s seed=%d: ERROR %s\n", rr.ID, rr.Seed, rr.Error)
			case rr.Canceled:
				fmt.Printf("%s seed=%d: canceled\n", rr.ID, rr.Seed)
			case len(rr.Violations) > 0:
				fmt.Printf("%s seed=%d:\n", rr.ID, rr.Seed)
				for _, v := range rr.Violations {
					fmt.Printf("  %s\n", v)
				}
			}
		}
		if rep.Job != nil && rep.Job.Store != "" && !c.Quiet {
			fmt.Printf("daemon store: %s\n", rep.Job.Store)
		}
	}
	if bad > 0 || (rep.Job != nil && rep.Job.State != api.JobDone) {
		return 1
	}
	return 0
}

// replayOne generates and checks a single (family, seed) scenario,
// printing its text and full outcome — the debugging view for a campaign
// finding.
func replayOne(fam scengen.Family, seed uint64, minimize bool, freezeDir string) (clean bool, err error) {
	spec, text, err := scengen.Generate(fam, seed)
	if err != nil {
		return false, err
	}
	fmt.Printf("# %s seed=%d\n%s", fam, seed, text)
	o, err := scengen.RunSpec(spec)
	if err != nil {
		return false, err
	}
	violations := scengen.Check(o)
	fmt.Printf("\nfingerprint: %s\n", o.Fingerprint)
	if len(violations) == 0 {
		fmt.Println("all invariants hold")
		return true, nil
	}
	for _, v := range violations {
		fmt.Printf("VIOLATION %s\n", v)
	}
	f := &scengen.Finding{Family: fam, Index: -1, Seed: seed, Text: text, Violations: violations}
	if minimize {
		min := scengen.Minimize(spec, violations[0].Name)
		if mt, err := simconfig.Emit(min); err == nil && mt != text {
			f.Minimized = mt
			fmt.Printf("\nminimized reproducer:\n%s", mt)
		}
	}
	if freezeDir != "" {
		path, err := scengen.Freeze(f, freezeDir)
		if err != nil {
			return false, err
		}
		fmt.Printf("froze %s\n", path)
	}
	return false, nil
}
