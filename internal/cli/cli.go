// Package cli is the flag surface and output plumbing shared by the
// phantom-* commands. Each binary declares which of the common flags it
// supports with a Flags mask; the flags parse into one Common value that
// converts straight into exp.Options, so a flag added here (like
// -shards) reaches every binary from one place.
package cli

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Flags selects which common flags a command registers.
type Flags uint

const (
	// FlagDuration registers -duration: override simulated duration.
	FlagDuration Flags = 1 << iota
	// FlagQuiet registers -quiet: suppress figures, print metrics only.
	FlagQuiet
	// FlagJSON registers -json: machine-readable output.
	FlagJSON
	// FlagFilter registers -filter: regexp over experiment IDs.
	FlagFilter
	// FlagWorkers registers -j: fleet worker count.
	FlagWorkers
	// FlagQuick registers -quick: the reduced-duration golden profile.
	FlagQuick
	// FlagProfile registers -cpuprofile and -memprofile: write pprof
	// profiles of the run for performance work on the cell path.
	FlagProfile
	// FlagTelemetry registers -telemetry: record per-component counters and
	// report them with the results.
	FlagTelemetry
	// FlagStore registers -store: persist run results (summaries, counters,
	// traces) into a columnar phantomdb campaign directory, queryable with
	// phantom-trace -store.
	FlagStore
	// FlagHTTP registers -http: serve the live fleet endpoints (/status
	// JSON and /metrics Prometheus text) on the given address while the
	// command runs. Every fleet-running binary gets the same endpoints
	// from the shared LiveState handlers.
	FlagHTTP
	// FlagSubmit registers -submit: send the command's job spec to a
	// phantom-serve daemon at the given address instead of executing
	// locally, then stream back the results.
	FlagSubmit
	// FlagShards registers -shards: split each scenario's topology across N
	// engines under the conservative epoch-barrier protocol (DESIGN.md §14).
	FlagShards
)

// TraceRingCap is the per-run flight-recorder capacity behind -store:
// enough to hold the interesting tail of a long run (the ring keeps the
// newest events). It bounds what a run retains, not what it allocates: a
// ring's storage grows with the events recorded (E01 quick's ~400 fit in
// 512 slots, ~140 KB), and only a run that records this many holds all
// 17.8 MB — once per worker, not per run, since runner.Fleet workers reuse
// one ring.
const TraceRingCap = 1 << 16

// Common holds the parsed common flags of one command invocation.
type Common struct {
	prog string

	// Duration overrides every experiment's simulated duration (zero keeps
	// each experiment's default).
	Duration time.Duration
	// Quiet suppresses figure rendering.
	Quiet bool
	// JSON switches output to machine-readable JSON.
	JSON bool
	// Filter is the -filter regexp source (empty matches everything), with
	// a paper reference (fig3, table2) already resolved to its ID.
	Filter string
	// Workers is the fleet worker count (0 = GOMAXPROCS).
	Workers int
	// Quick selects the reduced-duration golden profile.
	Quick bool
	// Telemetry enables the counter registry for each run.
	Telemetry bool
	// StoreDir, when non-empty, is the phantomdb campaign directory run
	// results append to.
	StoreDir string
	// HTTPAddr, when non-empty, is where the live fleet endpoints serve
	// while the command runs.
	HTTPAddr string
	// Pprof mounts net/http/pprof on the -http (or daemon API) surface.
	Pprof bool
	// Submit, when non-empty, is the phantom-serve daemon address the
	// command's job spec is sent to instead of executing locally.
	Submit string
	// Shards is the engine count per scenario (0 or 1 = single-engine).
	Shards int

	cpuProfile string
	memProfile string
	cpuFile    *os.File
}

// New registers the selected common flags on the default flag set. Call it
// before any command-specific flag.Xxx registrations, then Parse.
func New(prog string, flags Flags) *Common {
	c := &Common{prog: prog}
	if flags&FlagDuration != 0 {
		flag.DurationVar(&c.Duration, "duration", 0, "override simulated duration (e.g. 200ms)")
	}
	if flags&FlagQuiet != 0 {
		flag.BoolVar(&c.Quiet, "quiet", false, "suppress figures, print summary metrics only")
	}
	if flags&FlagJSON != 0 {
		flag.BoolVar(&c.JSON, "json", false, "emit machine-readable JSON")
	}
	if flags&FlagFilter != 0 {
		flag.StringVar(&c.Filter, "filter", "",
			"regexp of experiment IDs to run (empty = all), or a paper reference such as fig3, table2, quench")
	}
	if flags&FlagWorkers != 0 {
		flag.IntVar(&c.Workers, "j", 0, "parallel workers (0 = GOMAXPROCS)")
	}
	if flags&FlagQuick != 0 {
		flag.BoolVar(&c.Quick, "quick", false, "use the reduced-duration golden profile")
	}
	if flags&FlagProfile != 0 {
		flag.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
		flag.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	}
	if flags&FlagTelemetry != 0 {
		flag.BoolVar(&c.Telemetry, "telemetry", false,
			"record per-component counters and report them with the results")
	}
	if flags&FlagStore != 0 {
		flag.StringVar(&c.StoreDir, "store", "",
			"append run results (summaries, counters, traces) to this phantomdb campaign directory")
	}
	if flags&FlagHTTP != 0 {
		flag.StringVar(&c.HTTPAddr, "http", "",
			"serve live fleet progress (/status JSON, /metrics Prometheus) on this address while running")
		flag.BoolVar(&c.Pprof, "pprof", false,
			"also mount net/http/pprof under /debug/pprof/ on the live HTTP surface")
	}
	if flags&FlagSubmit != 0 {
		flag.StringVar(&c.Submit, "submit", "",
			"submit the job to a phantom-serve daemon at this address instead of running locally")
	}
	if flags&FlagShards != 0 {
		flag.IntVar(&c.Shards, "shards", 0,
			"split each scenario across N engines (conservative PDES; 0 or 1 = single-engine)")
	}
	return c
}

// Parse parses the command line and validates the common flags, exiting
// with a usage error on invalid input.
func (c *Common) Parse() {
	flag.Parse()
	if id, ok := aliases[strings.ToLower(c.Filter)]; ok {
		c.Filter = id
	}
	if c.Shards < 0 {
		fmt.Fprintf(os.Stderr, "%s: bad -shards: must be ≥ 0, got %d\n", c.prog, c.Shards)
		os.Exit(2)
	}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: -cpuprofile: %v\n", c.prog, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "%s: -cpuprofile: %v\n", c.prog, err)
			os.Exit(2)
		}
		c.cpuFile = f
	}
}

// Close finalizes profiling: it stops the CPU profile started by Parse and
// writes the heap profile requested by -memprofile. Commands call it on
// every exit path (including Fatal) so a profiled run always produces a
// readable file.
func (c *Common) Close() {
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		c.cpuFile.Close()
		c.cpuFile = nil
	}
	if c.memProfile != "" {
		f, err := os.Create(c.memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", c.prog, err)
			return
		}
		defer f.Close()
		runtime.GC() // settle live heap so the profile reflects retained memory
		if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", c.prog, err)
		}
		c.memProfile = ""
	}
}

// Options converts the parsed flags into experiment options. Each call
// returns a fresh telemetry registry when -telemetry is set, so commands
// that execute several experiments keep their counters separated.
func (c *Common) Options() exp.Options {
	o := exp.Options{
		Duration: sim.Duration(c.Duration),
		Quiet:    c.Quiet || c.JSON,
		Shards:   c.Shards,
	}
	if c.Telemetry {
		o.Telemetry = telemetry.New()
	}
	return o
}

// OpenStore opens the -store campaign writer, or returns nil when the
// flag is unset.
func (c *Common) OpenStore() (*store.Writer, error) {
	if c.StoreDir == "" {
		return nil, nil
	}
	return store.Create(c.StoreDir, store.Options{})
}

// StoreRun appends one completed run to w: the result's summary metrics
// and telemetry counters, plus the tracer's retained events when tr is
// non-nil. Callers running a fleet should use runner.Fleet.Store instead;
// this is the sequential single-run path.
func StoreRun(w *store.Writer, meta store.RunMeta, res *exp.Result, tr *trace.Tracer) error {
	seg := w.NewSegment(meta)
	if res != nil {
		seg.AddSummary(res.Summary)
		seg.AddCounters(res.Counters)
	}
	if tr != nil {
		seg.AddTrace(tr.Retained())
	}
	return w.Append(seg)
}

// FilterRegexp compiles -filter, exiting with a usage error when invalid.
func (c *Common) FilterRegexp() *regexp.Regexp {
	re, err := regexp.Compile(c.Filter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: bad -filter: %v\n", c.prog, err)
		os.Exit(2)
	}
	return re
}

// Fatal prints err prefixed with the command name and exits 1, flushing any
// active profiles first.
func (c *Common) Fatal(err error) {
	c.Close()
	fmt.Fprintf(os.Stderr, "%s: %v\n", c.prog, err)
	os.Exit(1)
}

// aliases maps the informal names of the paper's figures and tables onto
// the experiment that reproduces them; -filter accepts either.
var aliases = map[string]string{
	"fig3": "E01", "fig4": "E02", "fig5": "E03", "fig6": "E04",
	"fig7": "E05", "fig8": "E05", "fig9": "E06", "fig11": "E07",
	"table1": "E08", "fig19": "E14", "fig20": "E14", "fig21": "E15",
	"fig22": "E16", "table2": "E17", "exact": "E18", "gfc": "E21", "scaling": "E22",
	"fig14": "E09", "fig17": "E10", "fig18": "E11",
	"quench": "E12", "ecn": "E12", "red": "E13",
	"vegas": "E19", "interop": "E20", "atm": "E20",
}

// RunExperiment looks up id, runs it under the parsed options, and prints
// the result in the command's selected format (JSON or figures + notes).
func (c *Common) RunExperiment(id string) error {
	def, ok := exp.Get(id)
	if !ok {
		return fmt.Errorf("unknown experiment %q", id)
	}
	if !c.JSON {
		fmt.Printf("== %s (%s): %s\n", def.ID, def.PaperRef, def.Title)
	}
	o := c.Options()
	if c.Quick && o.Duration == 0 {
		o.Duration = runner.QuickDuration(def.ID)
	}
	var tr *trace.Tracer
	if c.StoreDir != "" {
		// The store persists trace events, so -store keeps a flight
		// recorder; tracing never alters results.
		tr = trace.New(TraceRingCap)
		o.Trace = tr
	}
	res, err := exp.Execute(def, o, nil)
	if err != nil {
		return err
	}
	if c.StoreDir != "" {
		w, err := c.OpenStore()
		if err != nil {
			return err
		}
		end := o.Duration
		if end <= 0 {
			end = def.Default
		}
		if err := StoreRun(w, store.RunMeta{Experiment: def.ID, End: sim.Time(end)}, res, tr); err != nil {
			w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	if c.JSON {
		if res.Title == "" {
			res.Title = def.Title
		}
		out, err := res.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	PrintResult(res, c.Quiet)
	return nil
}

// PrintResult renders a result for the terminal: figures, tables, notes,
// and — in quiet mode, where the figures are suppressed — the summary
// metrics in stable key order.
func PrintResult(res *exp.Result, quiet bool) {
	for _, f := range res.Figures {
		fmt.Println(f)
	}
	for _, t := range res.Tables {
		fmt.Println(t)
	}
	for _, n := range res.Notes {
		fmt.Printf("  • %s\n", n)
	}
	if quiet {
		keys := make([]string, 0, len(res.Summary))
		for k := range res.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-32s %v\n", k, res.Summary[k])
		}
	}
	if len(res.Counters) > 0 {
		fmt.Println("  telemetry:")
		telemetry.WriteText(os.Stdout, res.Counters, "    ")
	}
	fmt.Println()
}
