// Command phantom-bench is the repository's one benchmark: five named
// workloads that together exercise every layer of the stack (engine, cell
// path, switch algorithms, TCP/IP, shard group, fleet, job API, phantomdb,
// daemon), a fixed set of end-to-end metrics measured with spans off, and a
// -trace mode that attributes the time layer by layer. README.md in this
// directory documents every metric; BENCHMARK.json at the repository root
// is generated from the catalogue in catalog.go.
//
// Modes:
//
//	phantom-bench --workload W --seed N --seconds S --trace 0|1   one workload, last line is the result JSON
//	phantom-bench [-runs N] [-trace 0|1] [-out report.json]        all five, a fresh process each (appends to an existing report)
//	phantom-bench -compare A.json B.json                           judge report B against A by the bounds
//	phantom-bench -update-reference                                rewrite bench/reference.json
//	phantom-bench -benchmark-json                                  print BENCHMARK.json
//
// Run it through bench/run.sh from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const defaultSeconds = 20

// defaultSeed is the seed bench/reference.json's fingerprints belong to.
const defaultSeed = 1

// benchProcs is the most GOMAXPROCS is pinned to (a workload's procs says
// what it runs at). The host this benchmark is sized for has two cores: at
// most 2 fleet workers, 2 shards, 2 client connections, with all load
// generated from this one process.
const benchProcs = 2

// buildDir holds everything a run leaves behind (the launcher's build
// cache, scratch data roots, span files); .gitignore names it.
const buildDir = ".bench_build"

// bench is one workload run: its inputs, the span recorder (nil with
// tracing off), and the outcome it accumulates.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	scale    float64
	rec      *recorder
	tmp      string // scratch directory inside the checkout, removed at exit

	attempted int
	failed    int
	failures  []string
	values    map[string]metricValue
	// fingerprint is the simulation workloads' rep fingerprint, kept for
	// the reference check and -update-reference.
	fingerprint string
	counts      map[string]int64 // daemon workloads' expected counts
}

// metricValue is one metric's value with the sample count behind it (0 for a
// count or a computed figure) and a note on how it was obtained.
type metricValue struct {
	v    float64
	n    int
	note string
}

// op counts one attempted operation (a rep, a run, a query).
func (b *bench) op() { b.attempted++ }

// fail counts a failed operation: a wrong result is a failed op.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric.
func (b *bench) set(name string, v float64, n int, note string) {
	if findMetric(name) == nil {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	b.values[name] = metricValue{v, n, note}
}

// timed runs fn and returns how long it took in nanoseconds of wall time.
func timed(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0))
}

// recordPeakRSS sets peak_rss_mb to the process's resident-set high-water
// mark so far. The simulation workloads call it when their measured reps
// end, so that the correctness checks that follow (E08, the single-engine
// rep) cannot set the peak; the daemon workloads leave it to the exit.
func (b *bench) recordPeakRSS(when string) error {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return err
	}
	defer f.Close()
	rss, err := parseVmHWM(f)
	if err != nil {
		return err
	}
	b.set(mPeakRSS, rss, 1, when)
	return nil
}

// tracing reports whether this is the -trace run.
func (b *bench) tracing() bool { return b.rec != nil }

// scaled shrinks a size by the -scale factor (tests smoke-run every
// workload at 1%), never below min.
func (b *bench) scaled(n, min int) int {
	v := int(float64(n)*b.scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// result is the run's outcome as the report and -compare carry it.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Trace     bool     `json:"trace"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// StaleReference counts the failures that are only a disagreement with
	// reference.json: the ones -update-reference exists to clear.
	StaleReference int                `json:"stale_reference,omitempty"`
	Metrics        map[string]float64 `json:"metrics"`
	Fingerprint    string             `json:"fingerprint,omitempty"`
	Counts         map[string]int64   `json:"counts,omitempty"`
}

// runWorkload executes one workload in this process and returns its result.
func runWorkload(def *workloadDef, seed uint64, seconds, scale float64, trace bool) (*result, error) {
	runtime.GOMAXPROCS(def.procs)
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		workload: def.Name, seed: seed, seconds: seconds, scale: scale, tmp: tmp,
		values: map[string]metricValue{},
		counts: map[string]int64{},
	}
	if trace {
		b.rec = newRecorder(def.Name)
	}
	if err := def.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	ownFailures := b.failed
	b.checkReference()
	staleReference := b.failed - ownFailures

	if trace {
		spansPath := filepath.Join(buildDir, "spans-"+def.Name+".json")
		if err := b.rec.writeFile(spansPath); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		spans := b.rec.snapshot()
		fmt.Printf("spans: %d written to %s\n", len(spans), spansPath)
		// One unit operation's budget, from the spans alone: the first rep
		// of a simulation workload, the first traced job of daemon_ingest.
		for _, s := range spans {
			if s.Parent == noSpan && (s.Name == "rep" || s.Name == "job") {
				fmt.Printf("budget of %s %d:\n", s.Name, s.Rep)
				printBudget(os.Stdout, spans, s.ID)
				break
			}
		}
	} else if _, ok := b.values[mPeakRSS]; !ok {
		if err := b.recordPeakRSS("VmHWM at exit"); err != nil {
			return nil, err
		}
	}

	res := &result{
		Workload: def.Name, Seed: seed, Trace: trace,
		Attempted: b.attempted, Failed: b.failed, Failures: b.failures, StaleReference: staleReference,
		Metrics:     map[string]float64{},
		Fingerprint: b.fingerprint, Counts: b.counts,
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, m := range defs {
		mv, ok := b.values[m.Name]
		if !ok && measuredOn(&m, def.Name) {
			return nil, fmt.Errorf("%s did not report %s", def.Name, m.Name)
		}
		res.Metrics[m.Name] = mv.v
	}
	b.print(defs)
	return res, nil
}

func measuredOn(m *metricDef, workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// print writes every metric by name with its unit, the sample count behind
// it and how it was obtained.
func (b *bench) print(defs []metricDef) {
	fmt.Printf("workload %s seed %d: %d ops attempted, %d failed (failed_share %.4f)\n",
		b.workload, b.seed, b.attempted, b.failed, float64(b.failed)/float64(max(b.attempted, 1)))
	for _, f := range b.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	for _, m := range defs {
		if !measuredOn(&m, b.workload) {
			continue
		}
		mv := b.values[m.Name]
		line := fmt.Sprintf("  %-38s %16.6g %-5s", m.Name, mv.v, m.Unit)
		if mv.n > 0 {
			line += fmt.Sprintf(" n=%d", mv.n)
		}
		if m.Exact {
			line += " exact"
		}
		if mv.note != "" {
			line += " (" + mv.note + ")"
		}
		fmt.Println(line)
	}
}

// contractLine renders the result as the driver's last-line JSON object.
func contractLine(res *result) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]mv{}}
	for name, v := range res.Metrics {
		out.Metrics[name] = mv{v, findMetric(name).Unit}
	}
	return json.Marshal(out)
}

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload and print the result JSON as the last line (empty: all five, a fresh process each)")
		seed      = flag.Uint64("seed", defaultSeed, "workload seed: session placement, flow RTTs, query-target order")
		seconds   = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace     = flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
		scale     = flag.Float64("scale", 1, "shrink every workload's size by this factor (smoke tests use 0.01)")
		runs      = flag.Int("runs", 3, "all-workloads mode: runs per workload, at seeds seed, seed+1, ...")
		out       = flag.String("out", "", "all-workloads mode: write the report JSON here; appends the runs to a report that exists")
		jsonOut   = flag.String("result", "", "one-workload mode: also write the full result JSON here")
		compare   = flag.Bool("compare", false, "compare two report files: -compare A.json B.json")
		updateRef = flag.Bool("update-reference", false, "run the workloads at the default seed and rewrite reference.json")
		benchJSON = flag.Bool("benchmark-json", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()

	switch {
	case *benchJSON:
		b, err := benchmarkJSON(defaultSeconds)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare A.json B.json"))
		}
		ok, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *updateRef:
		if err := updateReference(*seconds); err != nil {
			fatal(err)
		}
	case *workload != "":
		def := findWorkload(*workload)
		if def == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		start := time.Now()
		res, err := runWorkload(def, *seed, *seconds, *scale, *trace != 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("run took %.1f s\n", time.Since(start).Seconds())
		if *jsonOut != "" {
			if err := writeJSON(*jsonOut, res); err != nil {
				fatal(err)
			}
		}
		line, err := contractLine(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if res.Failed > 0 {
			os.Exit(1)
		}
	default:
		ok, err := runAll(*seed, *seconds, *scale, *runs, *trace != 0, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phantom-bench:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
