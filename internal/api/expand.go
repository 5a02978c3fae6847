package api

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/scengen"
	"repro/internal/sim"
	"repro/internal/simconfig"
)

// Env is what the executor brings to a spec: its observation posture. The
// spec says what to run; the Env says where it runs — the same spec
// expands identically on a CLI and on the daemon apart from these knobs.
type Env struct {
	// Trace records every job on a flight recorder, for executors that
	// persist runs into a campaign store (the recorder feeds the store's
	// trace blocks). Expansion only marks the jobs (runner.Job.TraceCap);
	// the rings belong to the fleet's workers. Tracing never alters results.
	Trace bool
	// TraceRingCap caps each job's recorder (0: a campaign-sized default).
	TraceRingCap int
}

// Expansion is a spec turned into executable fleet work plus the collector
// that folds fleet results back into wire results. Run Jobs on any fleet
// (any worker count, any store sink, any context), then Convert each
// result — or Finish all of them — into the wire shape.
type Expansion struct {
	Spec JobSpec
	// Jobs in deterministic spec order. The executing fleet must pass this
	// exact slice: Convert is keyed by job index.
	Jobs []runner.Job

	campaign *scengen.Campaign // fuzz kind
	scenViol []scengen.Violation
	scenSet  bool
}

// TraceRingDefault caps per-job flight recorders for campaign-scale runs:
// each run retains its newest 4096 events. A recorder's storage grows with
// what its runs record, so a 1 ms E01 run (2 events) holds 64 slots, not
// the 1.1 MB a full ring takes.
const TraceRingDefault = 1 << 12

// Expand turns a validated spec into fleet jobs under env. Invalid specs
// (bad filter regexp, unknown family, unparseable scenario) fail here, so
// the daemon rejects them at submit time with a real message instead of
// queueing a job that can only fail.
func Expand(spec JobSpec, env Env) (*Expansion, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	traceCap := 0 // runner.Job.TraceCap of every job: 0 leaves them unrecorded
	if env.Trace {
		traceCap = env.TraceRingCap
		if traceCap <= 0 {
			traceCap = TraceRingDefault
		}
	}
	e := &Expansion{Spec: spec}
	switch spec.Kind {
	case KindSuite:
		e.expandSuite(traceCap)
	case KindScenario:
		if err := e.expandScenario(traceCap); err != nil {
			return nil, err
		}
	case KindFuzz:
		if err := e.expandFuzz(traceCap); err != nil {
			return nil, err
		}
	}
	if len(e.Jobs) == 0 {
		return nil, fmt.Errorf("api: spec matches no work (empty filter result?)")
	}
	return e, nil
}

// expandSuite builds one job per (matched experiment, sweep point).
func (e *Expansion) expandSuite(traceCap int) {
	s := e.Spec.Suite
	defs, _ := s.match() // Validate checked the filter
	sweep := s.Sweep
	if sweep < 1 {
		sweep = 1
	}
	e.Jobs = make([]runner.Job, 0, len(defs)*sweep) // at most MaxJobs: Validate checked
	for _, d := range defs {
		for i := 0; i < sweep; i++ {
			o := exp.Options{Quiet: true, Duration: sim.Duration(s.DurationNS), Shards: e.Spec.Shards}
			if s.Quick && o.Duration == 0 {
				o.Duration = runner.QuickDuration(d.ID)
			}
			job := runner.Job{Def: d, Opts: o, TraceCap: traceCap}
			if sweep > 1 {
				job.SweepIndex = i
			}
			e.Jobs = append(e.Jobs, job)
		}
	}
}

// expandScenario builds the single job that parses, runs and
// invariant-checks the embedded simconfig text.
func (e *Expansion) expandScenario(traceCap int) error {
	s := e.Spec.Scenario
	parsed, err := simconfig.Parse(strings.NewReader(s.Text))
	if err != nil {
		return fmt.Errorf("api: scenario: %w", err)
	}
	name := s.Name
	if name == "" {
		name = "scenario"
	}
	crossCheck := s.CrossCheck
	e.Jobs = []runner.Job{{
		Def: exp.Definition{
			ID:    name,
			Title: "simconfig scenario",
			Run: func(o exp.Options) (*exp.Result, error) {
				out, err := scengen.RunSpecObserved(parsed, scengen.Observe{Telemetry: o.Telemetry, Trace: o.Trace})
				if err != nil {
					return nil, err
				}
				violations := scengen.Check(out)
				if crossCheck {
					more, err := scengen.CrossCheck(parsed, out)
					if err != nil {
						return nil, fmt.Errorf("scenario %w", err)
					}
					violations = append(violations, more...)
				}
				// The job runs at most once per expansion, on one worker:
				// the slot write is ordered before every reader (Convert
				// after this job's completion, Finish after the drain).
				e.scenViol, e.scenSet = violations, true
				res := &exp.Result{
					ID: name,
					Summary: map[string]float64{
						"violations": float64(len(violations)),
						"fired":      float64(out.Fired),
						"sessions":   float64(len(out.Names)),
					},
					Notes: []string{"fingerprint: " + out.Fingerprint},
				}
				for i, n := range out.Names {
					res.Summary["tail_goodput."+n] = out.TailGoodput[i]
				}
				return res, nil
			},
		},
		Name:     name,
		TraceCap: traceCap,
	}}
	return nil
}

// expandFuzz delegates to scengen's campaign builder.
func (e *Expansion) expandFuzz(traceCap int) error {
	s := e.Spec.Fuzz
	var families []scengen.Family
	for _, name := range s.Families {
		f, err := scengen.ParseFamily(name)
		if err != nil {
			return fmt.Errorf("api: %w", err)
		}
		families = append(families, f)
	}
	c, err := scengen.NewCampaign(scengen.CampaignConfig{
		Families:   families,
		N:          s.N,
		CrossCheck: s.CrossCheck,
		Minimize:   s.Minimize,
		TraceCap:   traceCap,
	})
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	e.campaign = c
	e.Jobs = c.Jobs()
	return nil
}

// Convert folds the fleet result of job i into its wire envelope. Safe to
// call from an OnResult callback (the fuzz/scenario finding slots are
// written by the job's own Run before its result lands).
func (e *Expansion) Convert(i int, r runner.Result) RunResult {
	rr := RunResult{
		ID:       r.Job.Label(),
		Sweep:    r.Job.SweepIndex,
		WallMS:   float64(r.Wall) / float64(time.Millisecond),
		SimNS:    int64(r.SimTime),
		Canceled: r.Canceled,
	}
	rr.Seed = runner.DeriveSeed(r.Job.Def.ID, r.Job.SweepIndex)
	if r.Err != nil {
		rr.Error = r.Err.Error()
	}
	if r.Res != nil {
		rr.Summary = r.Res.Summary
		rr.Counters = r.Res.Counters
		rr.Notes = r.Res.Notes
		dropNonFinite(&rr)
	}
	switch {
	case e.campaign != nil:
		if f := e.campaign.Finding(i); f != nil {
			for _, v := range f.Violations {
				rr.Violations = append(rr.Violations, v.String())
			}
		}
	case e.scenSet && i == 0:
		for _, v := range e.scenViol {
			rr.Violations = append(rr.Violations, v.String())
		}
	}
	return rr
}

// dropNonFinite takes every NaN and ±Inf out of rr's summary — JSON has
// no form for them, so a run line or report carrying one could not be
// written — and names them in rr's error, which makes the run a failed
// one. The map is copied, never edited: the store has the raw values.
func dropNonFinite(rr *RunResult) {
	var bad []string
	for name, v := range rr.Summary {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, name)
		}
	}
	if bad == nil {
		return
	}
	slices.Sort(bad)
	finite := make(map[string]float64, len(rr.Summary)-len(bad))
	for name, v := range rr.Summary {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			finite[name] = v
		}
	}
	for i, name := range bad {
		bad[i] = name + "=" + strconv.FormatFloat(rr.Summary[name], 'g', -1, 64)
	}
	// A run with a result has no error of its own to keep.
	rr.Summary, rr.Error = finite, "summary values with no JSON form: "+strings.Join(bad, ", ")
}

// Finish converts every result (in job order) into the report. Call once,
// after the fleet drains. The report counts as failed the runs that fail
// once converted, so a run Convert fails for a non-finite summary value
// is among them.
func (e *Expansion) Finish(results []runner.Result, stats runner.Stats) *Report {
	rrs := make([]RunResult, len(results))
	stats.Failed = 0
	for i, r := range results {
		rrs[i] = e.Convert(i, r)
		if rrs[i].Failed() {
			stats.Failed++
		}
	}
	return NewReport(e.Spec.Kind, rrs, stats)
}

// Findings returns the fuzz campaign's compacted findings in (family,
// index) order, for freeze/minimize reporting. Valid after the fleet has
// drained; nil for non-fuzz specs or clean campaigns.
func (e *Expansion) Findings() []scengen.Finding {
	if e.campaign == nil {
		return nil
	}
	var out []scengen.Finding
	for i := range e.Jobs {
		if f := e.campaign.Finding(i); f != nil {
			out = append(out, *f)
		}
	}
	return out
}
