package scengen

import (
	"fmt"
	"strings"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/simconfig"
)

// CampaignConfig sizes one fuzzing campaign.
type CampaignConfig struct {
	// Families to draw from; nil means all of them.
	Families []Family
	// N is the number of scenarios per family.
	N int
	// Workers bounds concurrency (0: GOMAXPROCS). The report is
	// bit-identical for every worker count: seeds derive from (family,
	// index) and findings land at their job's slot.
	Workers int
	// CrossCheck additionally re-runs every scenario on a fresh engine in
	// the same process and reports a "determinism" violation if any
	// observable counter differs — state leaking from one run into the next
	// (through a pool, say) breaks reproducibility — and runs a sharded
	// scenario single-engine as well ("shard-determinism").
	CrossCheck bool
	// Minimize shrinks each failing scenario to a minimal reproducer
	// (costly: the minimizer re-runs candidates many times).
	Minimize bool
	// Hook observes job progress (optional, concurrency-safe).
	Hook exp.Hook
	// Telemetry gives every scenario run a private counter registry; the
	// fleet totals land in the report's Stats.Counters. Observation never
	// changes fingerprints or findings.
	Telemetry bool
	// TraceCap, when positive, marks every scenario for recording on a
	// flight recorder of that capacity (runner.Job.TraceCap), for executors
	// that attach a store sink or a trace export to the fleet they run the
	// jobs on.
	TraceCap int
}

// Finding is one scenario that violated an invariant.
type Finding struct {
	Family Family
	Index  int
	Seed   uint64
	// Text is the scenario's canonical simconfig text.
	Text string
	// Violations the run triggered, in Check's deterministic order.
	Violations []Violation
	// Minimized is the shrunk reproducer's canonical text (empty when
	// minimization was off or could not shrink anything).
	Minimized string
}

// CampaignReport is a campaign's deterministic outcome.
type CampaignReport struct {
	Scenarios int
	// Findings in (family, index) order regardless of worker scheduling.
	Findings []Finding
	Stats    runner.Stats
}

// Campaign is a built-but-not-yet-run campaign: the fleet jobs plus the
// finding slots they write into. It exists so any executor — phantom-fuzz
// locally, the phantom-serve daemon remotely — can run the same jobs on its
// own fleet (with its own context, store sink and live hooks) and still
// collect findings deterministically.
type Campaign struct {
	jobs  []runner.Job
	slots []*Finding
}

// NewCampaign expands cfg into one fleet job per scenario. Findings are
// written into per-job slots (one writer each), compacted in order by
// Finish after the fleet drains.
func NewCampaign(cfg CampaignConfig) (*Campaign, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("scengen: campaign needs N > 0, got %d", cfg.N)
	}
	families := cfg.Families
	if len(families) == 0 {
		families = Families()
	}
	c := &Campaign{slots: make([]*Finding, len(families)*cfg.N)}
	for fi, fam := range families {
		for i := 0; i < cfg.N; i++ {
			fam, i, slot := fam, i, &c.slots[fi*cfg.N+i]
			c.jobs = append(c.jobs, runner.Job{
				Def: exp.Definition{
					ID:    "fuzz/" + string(fam),
					Title: "scenario fuzz: " + string(fam),
					Run: func(o exp.Options) (*exp.Result, error) {
						f, err := runOne(fam, i, o.Seed, cfg.CrossCheck, cfg.Minimize,
							Observe{Telemetry: o.Telemetry, Trace: o.Trace})
						if err != nil {
							return nil, err
						}
						*slot = f
						res := &exp.Result{ID: "fuzz/" + string(fam), Summary: map[string]float64{"violations": 0}}
						if f != nil {
							res.Summary["violations"] = float64(len(f.Violations))
						}
						return res, nil
					},
				},
				SweepIndex: i,
				Name:       fmt.Sprintf("fuzz/%s[%d]", fam, i),
				TraceCap:   cfg.TraceCap,
			})
		}
	}
	return c, nil
}

// Jobs returns the campaign's fleet jobs in (family, index) order. The
// slice is the campaign's own: run it, don't reorder it.
func (c *Campaign) Jobs() []runner.Job { return c.jobs }

// Finding returns the finding of job i (nil: every invariant held). Valid
// once job i has completed — the slot is written by the job's own Run, so
// any caller ordered after that completion (an OnResult callback for i, or
// anything after the fleet drains) reads it race-free.
func (c *Campaign) Finding(i int) *Finding { return c.slots[i] }

// runOne generates, runs and checks scenario (family, index); seed is the
// fleet-derived seed, runner.DeriveSeed("fuzz/"+fam, index). A nil Finding
// means the scenario held every invariant. The observation sinks attach to
// the primary run only: the cross-check re-run compares fingerprints, and
// observation is contractually invisible to those.
func runOne(fam Family, index int, seed uint64, crossCheck, minimize bool, obs Observe) (*Finding, error) {
	spec, text, err := Generate(fam, seed)
	if err != nil {
		return nil, err
	}
	o, err := RunSpecObserved(spec, obs)
	if err != nil {
		return nil, fmt.Errorf("scenario %s[%d] failed to run: %w\n%s", fam, index, err, text)
	}
	violations := Check(o)

	if crossCheck {
		more, err := CrossCheck(spec, o)
		if err != nil {
			return nil, fmt.Errorf("scenario %s[%d] %w", fam, index, err)
		}
		violations = append(violations, more...)
	}

	if len(violations) == 0 {
		return nil, nil
	}
	f := &Finding{Family: fam, Index: index, Seed: seed, Text: text, Violations: violations}
	if minimize && violations[0].Name != "determinism" {
		min := Minimize(spec, violations[0].Name)
		if mt, err := simconfig.Emit(min); err == nil && mt != text {
			f.Minimized = mt
		}
	}
	return f, nil
}

// CrossCheck re-runs spec, whose run gave o, on a fresh engine and reports
// a "determinism" violation unless the fingerprints are equal: a run that
// is not reproducible in the same process has state leaking between runs,
// through a pool say. A sharded spec also runs single-engine and reports a
// "shard-determinism" violation unless the data fingerprints are equal.
func CrossCheck(spec *simconfig.Spec, o *Outcome) ([]Violation, error) {
	var violations []Violation
	o2, err := RunSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("failed on re-run: %w", err)
	}
	if o2.Fingerprint != o.Fingerprint {
		violations = append(violations, Violation{"determinism", fmt.Sprintf(
			"run and re-run disagree:\n  %s\nvs\n  %s", o.Fingerprint, o2.Fingerprint)})
	}
	if o.Shards > 1 {
		o3, err := RunSpec(Unsharded(spec))
		if err != nil {
			return nil, fmt.Errorf("failed single-engine: %w", err)
		}
		if o3.DataFingerprint != o.DataFingerprint {
			violations = append(violations, Violation{"shard-determinism", fmt.Sprintf(
				"%d-shard and single-engine runs disagree:\n  %s\nvs\n  %s",
				o.Shards, o.DataFingerprint, o3.DataFingerprint)})
		}
	}
	return violations, nil
}

// Unsharded returns a copy of spec with the sharding directives cleared, so
// the same scenario runs single-engine — the reference side of the
// sharded-vs-unsharded cross-check.
func Unsharded(spec *simconfig.Spec) *simconfig.Spec {
	un := *spec
	un.Config.Shards, un.Config.Partition = 0, nil
	return &un
}

// Summary renders a campaign report as stable, human-readable text.
func (r *CampaignReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d scenarios, %d findings\n", r.Scenarios, len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "%s[%d] seed=%d:\n", f.Family, f.Index, f.Seed)
		for _, v := range f.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	return b.String()
}
