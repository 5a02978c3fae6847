// Package exp defines the reproduction experiments: one Definition per
// table or figure of the paper (E01–E17) plus the ablations of our
// reconstruction choices (A01–A03). Each experiment builds its scenario,
// runs it, and returns rendered figures, tables and a flat map of summary
// metrics that the benchmark harness reports and EXPERIMENTS.md records.
package exp

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Options tune a run without changing its meaning.
type Options struct {
	// Duration overrides the experiment's default simulated time. Shorter
	// runs converge less tightly but keep the shapes.
	Duration sim.Duration
	// Quiet suppresses figure rendering (benchmarks want metrics only).
	Quiet bool
	// Seed is the base seed for any stochastic component of the experiment
	// (loss injection, random on/off phases). The experiments in this
	// repository are fully specified by their definitions and pick fixed
	// internal seeds, so a zero Seed reproduces the paper figures exactly;
	// the fleet runner derives a stable non-zero Seed per (experiment,
	// sweep index) so that future stochastic sweeps stay reproducible.
	Seed uint64
	// Telemetry, if non-nil, receives counters from every component the
	// experiment builds. Experiments that build several networks (sweeps,
	// comparisons) accumulate into the one registry, so the snapshot that
	// Execute attaches to the Result covers the whole experiment. Telemetry
	// observes a run without changing it: metric results are bit-identical
	// with or without a registry, which the golden snapshots verify.
	Telemetry *telemetry.Registry
	// Trace, if non-nil, records structured flight-recorder events (drops,
	// rate changes) from every scenario the experiment builds. Like
	// Telemetry it never alters results.
	Trace *trace.Tracer
	// Shards splits every scenario the experiment builds across N engines
	// under the conservative epoch-barrier protocol (DESIGN.md §14). 0 or 1
	// runs single-engine. At a fixed shard count runs are bit-identical
	// run-to-run; across shard counts metric equality holds on the golden
	// suite but is not a hard contract (see the determinism caveat in §14).
	Shards int
}

// Result is an experiment's output.
type Result struct {
	ID      string
	Title   string
	Figures []string
	Tables  []string
	// Summary holds the scalar metrics, keyed by stable names.
	Summary map[string]float64
	// Counters holds the telemetry snapshot of the run, keyed by dotted
	// counter names ("link.cells_sent"). Nil unless the run was executed
	// with Options.Telemetry; aggregate with telemetry.Merge.
	Counters map[string]uint64
	// Notes records the expected shape from the paper and what we saw.
	Notes []string
}

// SchemaVersion identifies the JSON layout emitted by Result.JSON and by
// phantom-suite -json. Bump it on any breaking change to field names or
// meanings so scripted consumers can detect incompatibility instead of
// silently misreading. History:
//
//	1 — initial versioned schema (schema_version, id, title, summary,
//	    notes; suite reports additionally carry schema_version at the top
//	    level beside duration/results).
//	2 — telemetry: per-experiment "counters" object (dotted counter name →
//	    value, present only when telemetry is enabled) and suite-level
//	    "counters" fleet totals merged per telemetry.Merge.
//	3 — job API: campaign output moves onto the internal/api envelopes
//	    shared by phantom-suite, phantom-fuzz and phantom-serve. Suite and
//	    fuzz -json emit api.Report (per-run api.RunResult rows plus a
//	    nested "stats" object replacing v2's top-level flat fleet fields);
//	    fuzz runs gain structured "violations"; job submission, status and
//	    streaming results use api.JobSpec / api.JobStatus / api.ResultLine.
//	    Single-experiment JSON (this method) is unchanged apart from the
//	    version number.
const SchemaVersion = 3

// JSON renders the result as indented JSON: schema version, id, title,
// summary metrics, telemetry counters (when recorded) and notes (figures
// and tables are terminal artifacts and are omitted). The CLIs expose it
// behind their -json flag for scripted consumption.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		SchemaVersion int                `json:"schema_version"`
		ID            string             `json:"id"`
		Title         string             `json:"title,omitempty"`
		Summary       map[string]float64 `json:"summary"`
		Counters      map[string]uint64  `json:"counters,omitempty"`
		Notes         []string           `json:"notes"`
	}{SchemaVersion, r.ID, r.Title, r.Summary, r.Counters, r.Notes}, "", "  ")
}

// addf appends a formatted note.
func (r *Result) addf(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Definition names a reproducible experiment.
type Definition struct {
	ID       string // e.g. "E01"
	PaperRef string // e.g. "Fig. 3"
	Title    string
	Default  sim.Duration
	Run      func(o Options) (*Result, error)
}

var (
	registry = map[string]Definition{}

	// sortedOnce caches the ID-ordered view of the registry. Registration
	// only happens from init funcs, so by the time any caller asks for the
	// ordered view the registry is frozen and the sort can run exactly once.
	sortedOnce sync.Once
	sorted     []Definition
)

// register installs a definition; duplicate IDs are a programming error.
func register(d Definition) {
	if _, dup := registry[d.ID]; dup {
		panic("exp: duplicate experiment " + d.ID)
	}
	registry[d.ID] = d
}

// Get returns the definition for id.
func Get(id string) (Definition, bool) {
	d, ok := registry[id]
	return d, ok
}

// ordered returns the shared ID-sorted slice. Callers must not mutate it.
func ordered() []Definition {
	sortedOnce.Do(func() {
		sorted = make([]Definition, 0, len(registry))
		for _, d := range registry {
			sorted = append(sorted, d)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	})
	return sorted
}

// Walk calls fn for every definition in ID order without allocating a new
// slice. It stops early when fn returns false. This is the iteration path
// for hot callers (the fleet runner walks the registry once per suite run).
func Walk(fn func(Definition) bool) {
	for _, d := range ordered() {
		if !fn(d) {
			return
		}
	}
}

// Phase marks a point in an experiment's execution as observed by a Hook.
type Phase int

const (
	// PhaseStart fires immediately before the experiment's Run function.
	PhaseStart Phase = iota
	// PhaseDone fires after a successful run.
	PhaseDone
	// PhaseFailed fires after a run that returned an error.
	PhaseFailed
)

// String names the phase for logs.
func (p Phase) String() string {
	switch p {
	case PhaseStart:
		return "start"
	case PhaseDone:
		return "done"
	case PhaseFailed:
		return "failed"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Hook observes experiment execution. The fleet runner uses it for progress
// reporting and wall-clock accounting without exp importing any runner types.
// err is nil except for PhaseFailed.
type Hook func(id string, phase Phase, err error)

// Execute runs d under o, invoking hook (when non-nil) around the run and
// validating the result envelope: a successful run must return a non-nil
// Result whose ID matches the definition and whose Summary map is non-nil,
// so downstream consumers (golden snapshots, benchmarks) never nil-check.
// Panics inside Run propagate to the caller; the fleet runner converts them
// to failed results so one crashing experiment cannot kill a whole suite.
func Execute(d Definition, o Options, hook Hook) (*Result, error) {
	if hook != nil {
		hook(d.ID, PhaseStart, nil)
	}
	res, err := d.Run(o)
	if err == nil {
		switch {
		case res == nil:
			err = fmt.Errorf("exp: %s returned a nil result", d.ID)
		case res.ID != d.ID:
			err = fmt.Errorf("exp: %s returned result with ID %q", d.ID, res.ID)
		case res.Summary == nil:
			err = fmt.Errorf("exp: %s returned a nil summary", d.ID)
		}
	}
	if err != nil {
		if hook != nil {
			hook(d.ID, PhaseFailed, err)
		}
		return nil, err
	}
	if o.Telemetry != nil {
		res.Counters = o.Telemetry.Snapshot()
	}
	if hook != nil {
		hook(d.ID, PhaseDone, nil)
	}
	return res, nil
}

// duration applies the default when the option is zero.
func (o Options) duration(def sim.Duration) sim.Duration {
	if o.Duration > 0 {
		return o.Duration
	}
	return def
}
