// Package api defines the versioned wire vocabulary of the phantom job
// API: one JobSpec type that describes any runnable campaign — a suite
// filter/sweep, a raw simconfig scenario, or a fuzz campaign — plus the
// result and status envelopes every entry point emits. The same types
// drive local execution (phantom-suite, phantom-fuzz run an Expansion on
// their own fleet) and remote submission (the CLIs POST the spec to a
// phantom-serve daemon with -submit), so "what to run" is said exactly one
// way everywhere.
//
// Versioning policy: every envelope carries schema_version
// (= exp.SchemaVersion). The version bumps on any breaking change to field
// names or meanings; consumers reject versions they don't know instead of
// silently misreading. The REST path prefix (/v1/) tracks endpoint shape —
// URL layout and verbs — while schema_version tracks payload shape; the
// two move independently.
package api

import (
	"encoding/json"
	"fmt"
	"regexp"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/scengen"
)

// SchemaVersion is the payload schema every api envelope carries. It is
// exp.SchemaVersion re-exported: the single version number covers the
// whole JSON surface (single results, suite/fuzz reports, job envelopes).
const SchemaVersion = exp.SchemaVersion

// PathPrefix is the versioned REST prefix every job endpoint lives under.
const PathPrefix = "/v1"

// MaxJobs bounds the fleet jobs one spec may expand to: sweep points times
// matched experiments, or scenarios per family times families. An expanded
// job is a few hundred bytes, so the bound is generous — it exists so that
// no spec, however small, can ask for an unbounded job list.
const MaxJobs = 1_000_000

// Kind says which payload of a JobSpec is live.
type Kind string

const (
	// KindSuite runs registered experiments matched by a filter, optionally
	// swept over derived seeds.
	KindSuite Kind = "suite"
	// KindScenario runs one simconfig scenario and checks the flow-control
	// invariants against it.
	KindScenario Kind = "scenario"
	// KindFuzz runs a scengen invariant-fuzzing campaign.
	KindFuzz Kind = "fuzz"
)

// JobSpec is the one job vocabulary: a complete, serializable description
// of a campaign. Exactly one of Suite, Scenario, Fuzz is set, matching
// Kind. The zero values of the common knobs defer to the executor (its
// worker count).
type JobSpec struct {
	SchemaVersion int  `json:"schema_version"`
	Kind          Kind `json:"kind"`

	Suite    *SuiteSpec    `json:"suite,omitempty"`
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
	Fuzz     *FuzzSpec     `json:"fuzz,omitempty"`

	// Workers bounds the executing fleet's concurrency (0: executor's
	// default, GOMAXPROCS for local runs, the daemon's -j for remote).
	Workers int `json:"workers,omitempty"`
	// Telemetry gives every run a private counter registry; per-run
	// snapshots ride the results and fleet totals ride the stats.
	Telemetry bool `json:"telemetry,omitempty"`
	// Shards splits each run's topology across N engines under the
	// conservative epoch-barrier protocol (0 or 1: single-engine). Runs are
	// bit-identical run-to-run at a fixed shard count; the golden suite is
	// additionally metric-identical across shard counts (DESIGN.md §14).
	Shards int `json:"shards,omitempty"`
	// Tag is a free-form client label echoed in job status.
	Tag string `json:"tag,omitempty"`
}

// SuiteSpec selects registered experiments: the suite/sweep half of the
// job vocabulary.
type SuiteSpec struct {
	// Filter is a regexp over experiment IDs (empty: all).
	Filter string `json:"filter,omitempty"`
	// Quick selects the reduced-duration golden profile.
	Quick bool `json:"quick,omitempty"`
	// DurationNS overrides every experiment's simulated duration
	// (0: defaults, or the quick profile under Quick).
	DurationNS int64 `json:"duration_ns,omitempty"`
	// Sweep runs each matched experiment at this many seeded sweep points
	// (0 or 1: a single point). Point i gets the fleet's derived
	// (ID, i) seed, so sweeps are reproducible anywhere.
	Sweep int `json:"sweep,omitempty"`
}

// ScenarioSpec runs one simconfig scenario (either dialect) and checks the
// flow-control invariants against it.
type ScenarioSpec struct {
	// Text is the simconfig source.
	Text string `json:"text"`
	// Name labels the run in results (default "scenario").
	Name string `json:"name,omitempty"`
	// CrossCheck additionally re-runs the scenario on a fresh engine (and a
	// sharded one single-engine) and reports a determinism violation on any
	// divergence.
	CrossCheck bool `json:"crosscheck,omitempty"`
}

// FuzzSpec runs a scengen invariant-fuzzing campaign.
type FuzzSpec struct {
	// Families restricts the campaign (empty: all families).
	Families []string `json:"families,omitempty"`
	// N is the number of scenarios per family.
	N int `json:"n"`
	// CrossCheck diffs each scenario's fingerprint against a re-run's.
	CrossCheck bool `json:"crosscheck,omitempty"`
	// Minimize shrinks each failing scenario to a minimal reproducer.
	Minimize bool `json:"minimize,omitempty"`
}

// Validate checks the spec's internal consistency: a known kind, exactly
// the matching payload present, a parseable filter, and an
// expansion of at most MaxJobs jobs. It is the shared gate for both the
// CLIs (before running or submitting) and the daemon (before accepting).
func (s *JobSpec) Validate() error {
	if s.SchemaVersion != 0 && s.SchemaVersion != SchemaVersion {
		return fmt.Errorf("api: schema_version %d not supported (want %d)", s.SchemaVersion, SchemaVersion)
	}
	if s.Workers < 0 {
		return fmt.Errorf("api: negative workers %d", s.Workers)
	}
	if s.Shards < 0 {
		return fmt.Errorf("api: negative shards %d", s.Shards)
	}
	set := 0
	if s.Suite != nil {
		set++
	}
	if s.Scenario != nil {
		set++
	}
	if s.Fuzz != nil {
		set++
	}
	if set != 1 {
		return fmt.Errorf("api: spec must carry exactly one of suite, scenario, fuzz (got %d)", set)
	}
	switch s.Kind {
	case KindSuite:
		if s.Suite == nil {
			return fmt.Errorf("api: kind %q without a suite payload", s.Kind)
		}
		if s.Suite.Sweep < 0 {
			return fmt.Errorf("api: negative sweep %d", s.Suite.Sweep)
		}
		if s.Suite.DurationNS < 0 {
			return fmt.Errorf("api: negative duration %d", s.Suite.DurationNS)
		}
		matched, err := s.Suite.match()
		if err != nil {
			return err
		}
		if err := checkJobs(s.Suite.Sweep, len(matched), "sweep points", "matched experiments"); err != nil {
			return err
		}
	case KindScenario:
		if s.Scenario == nil {
			return fmt.Errorf("api: kind %q without a scenario payload", s.Kind)
		}
		if s.Scenario.Text == "" {
			return fmt.Errorf("api: scenario spec without text")
		}
	case KindFuzz:
		if s.Fuzz == nil {
			return fmt.Errorf("api: kind %q without a fuzz payload", s.Kind)
		}
		if s.Fuzz.N <= 0 {
			return fmt.Errorf("api: fuzz campaign needs n > 0, got %d", s.Fuzz.N)
		}
		families := len(s.Fuzz.Families)
		if families == 0 {
			families = len(scengen.Families())
		}
		if err := checkJobs(s.Fuzz.N, families, "scenarios per family", "families"); err != nil {
			return err
		}
	default:
		return fmt.Errorf("api: unknown job kind %q", s.Kind)
	}
	return nil
}

// match returns the registered experiments the filter selects, in registry
// order.
func (s *SuiteSpec) match() ([]exp.Definition, error) {
	re, err := regexp.Compile(s.Filter)
	if err != nil {
		return nil, fmt.Errorf("api: bad filter: %w", err)
	}
	var defs []exp.Definition
	exp.Walk(func(d exp.Definition) bool {
		if re.MatchString(d.ID) {
			defs = append(defs, d)
		}
		return true
	})
	return defs, nil
}

// checkJobs rejects a spec whose per × of product exceeds MaxJobs, without
// forming the product (per comes straight off the wire).
func checkJobs(per, of int, perName, ofName string) error {
	if of > 0 && per > MaxJobs/of {
		return fmt.Errorf("api: spec expands to %d %s x %d %s, over the limit of %d jobs", per, perName, of, ofName, MaxJobs)
	}
	return nil
}

// RunResult is one run's wire envelope: the schema-v3 shape shared by
// phantom-suite -json, phantom-fuzz -json, and the daemon's results
// stream. Golden and Drifts are filled by clients that compare against
// local baselines; the daemon never sets them.
type RunResult struct {
	ID    string `json:"id"`
	Sweep int    `json:"sweep,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
	// WallMS is the run's wall-clock cost on the executor. It is the one
	// field that is not deterministic; byte-level comparisons zero it.
	WallMS   float64  `json:"wall_ms"`
	SimNS    int64    `json:"sim_nanos"`
	Error    string   `json:"error,omitempty"`
	Canceled bool     `json:"canceled,omitempty"`
	Golden   string   `json:"golden,omitempty"` // ok | drift | updated | none | skipped
	Drifts   []string `json:"drifts,omitempty"`

	Summary  map[string]float64 `json:"summary,omitempty"`
	Counters map[string]uint64  `json:"counters,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
	// Violations are the invariant violations of a scenario/fuzz run, in
	// the checker's deterministic order.
	Violations []string `json:"violations,omitempty"`
}

// Failed reports whether the run failed: it carries an error and was not
// canceled. A canceled run says nothing about the experiment.
func (r *RunResult) Failed() bool { return r.Error != "" && !r.Canceled }

// FleetStats is the wire form of runner.Stats.
type FleetStats struct {
	Runs       int               `json:"runs"`
	Failed     int               `json:"failed"`
	Canceled   int               `json:"canceled,omitempty"`
	Workers    int               `json:"workers"`
	WallMS     float64           `json:"wall_ms"`
	WorkMS     float64           `json:"work_ms"`
	SimSeconds float64           `json:"sim_seconds"`
	Mallocs    uint64            `json:"mallocs"`
	AllocBytes uint64            `json:"alloc_bytes"`
	Counters   map[string]uint64 `json:"counters,omitempty"`
}

// WireStats converts fleet statistics to their wire form.
func WireStats(s runner.Stats) FleetStats {
	return FleetStats{
		Runs:       s.Runs,
		Failed:     s.Failed,
		Canceled:   s.Canceled,
		Workers:    s.Workers,
		WallMS:     float64(s.Wall) / float64(time.Millisecond),
		WorkMS:     float64(s.WorkWall) / float64(time.Millisecond),
		SimSeconds: s.SimTime.Seconds(),
		Mallocs:    s.Mallocs,
		AllocBytes: s.AllocBytes,
		Counters:   s.Counters,
	}
}

// Report is a whole campaign's envelope: the -json top level of
// phantom-suite and phantom-fuzz, and the terminal line of the daemon's
// results stream (with Results omitted there — the runs already streamed).
type Report struct {
	SchemaVersion int         `json:"schema_version"`
	Kind          Kind        `json:"kind"`
	Results       []RunResult `json:"results,omitempty"`
	Stats         FleetStats  `json:"stats"`
	// Job echoes the daemon-side job status on remote runs; nil locally.
	Job *JobStatus `json:"job,omitempty"`
}

// NewReport assembles the envelope for a finished local run.
func NewReport(kind Kind, results []RunResult, stats runner.Stats) *Report {
	return &Report{SchemaVersion: SchemaVersion, Kind: kind, Results: results, Stats: WireStats(stats)}
}

// JobState is a daemon job's lifecycle state.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobStatus is the daemon's view of one job.
type JobStatus struct {
	SchemaVersion int      `json:"schema_version"`
	ID            string   `json:"id"`
	State         JobState `json:"state"`
	Kind          Kind     `json:"kind"`
	Tag           string   `json:"tag,omitempty"`
	// Total is the job's run count; Done/Failed/CanceledRuns advance as
	// runs land (Done counts every landed run, including failed and
	// canceled ones).
	Total        int    `json:"total"`
	Done         int    `json:"done"`
	Failed       int    `json:"failed"`
	CanceledRuns int    `json:"canceled_runs,omitempty"`
	Error        string `json:"error,omitempty"`
	// Store is the job's campaign directory on the daemon host (empty when
	// the daemon runs storeless); query it with phantom-trace -store, or
	// remotely through the job's analytics endpoints.
	Store string `json:"store,omitempty"`
	// Adopted marks a campaign the daemon found in its data root at
	// startup rather than ran itself: queryable, but with no run history.
	Adopted bool `json:"adopted,omitempty"`

	SubmittedUnixMS int64 `json:"submitted_unix_ms,omitempty"`
	StartedUnixMS   int64 `json:"started_unix_ms,omitempty"`
	FinishedUnixMS  int64 `json:"finished_unix_ms,omitempty"`
}

// JobList is the GET /v1/jobs envelope, in submission order.
type JobList struct {
	SchemaVersion int         `json:"schema_version"`
	Jobs          []JobStatus `json:"jobs"`
}

// ResultLine is one NDJSON line of the streaming results endpoint:
// exactly one field is set. Run lines arrive in job (submission) order as
// runs land; the final Report line (Results omitted, Job set) terminates
// the stream.
type ResultLine struct {
	Run    *RunResult `json:"run,omitempty"`
	Report *Report    `json:"report,omitempty"`
}

// Error is the wire form of an HTTP-level failure.
type Error struct {
	SchemaVersion int    `json:"schema_version"`
	Message       string `json:"error"`
}

// MarshalError renders an Error envelope; handlers write it with the
// status code.
func MarshalError(msg string) []byte {
	b, _ := json.Marshal(Error{SchemaVersion: SchemaVersion, Message: msg})
	return b
}
