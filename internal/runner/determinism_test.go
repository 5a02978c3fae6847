package runner

import (
	"math"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
)

// shortDuration picks a determinism-test duration for id: long enough that
// the experiment exercises its whole pipeline, short enough that running the
// entire registry three times stays affordable under -race. Shape quality is
// irrelevant here — only reproducibility is under test.
func shortDuration(id string) sim.Duration {
	if q := QuickDuration(id); q > 0 {
		return q / 8
	}
	return 50 * sim.Millisecond
}

// summariesIdentical reports whether two summary maps are bit-identical:
// same keys, and every value the same float64 bit pattern (so +0/-0 and NaN
// payload changes count as drift).
func summariesIdentical(t *testing.T, label string, a, b map[string]float64) bool {
	t.Helper()
	ok := true
	for k, va := range a {
		vb, present := b[k]
		if !present {
			t.Errorf("%s: metric %q missing from second run", label, k)
			ok = false
			continue
		}
		if math.Float64bits(va) != math.Float64bits(vb) {
			t.Errorf("%s: metric %q differs: %v (%#x) vs %v (%#x)",
				label, k, va, math.Float64bits(va), vb, math.Float64bits(vb))
			ok = false
		}
	}
	for k := range b {
		if _, present := a[k]; !present {
			t.Errorf("%s: metric %q appeared only in second run", label, k)
			ok = false
		}
	}
	return ok
}

// registered returns every experiment definition in ID order.
func registered() []exp.Definition {
	var defs []exp.Definition
	exp.Walk(func(d exp.Definition) bool {
		defs = append(defs, d)
		return true
	})
	return defs
}

// TestDeterminism is the suite's reproducibility contract: every registered
// experiment run twice directly yields bit-identical summaries (same seed ⇒
// same metrics), and the parallel fleet yields the same bits as the direct
// runs (sequential ≡ parallel — worker count and completion order are
// invisible to the results).
func TestDeterminism(t *testing.T) {
	defs := registered()
	if len(defs) == 0 {
		t.Fatal("registry is empty")
	}

	// Direct sequential runs, seeded exactly as the fleet would seed them.
	direct := make([]*exp.Result, len(defs))
	for i, d := range defs {
		o := exp.Options{Quiet: true, Duration: shortDuration(d.ID), Seed: DeriveSeed(d.ID, 0)}
		first, err := exp.Execute(d, o, nil)
		if err != nil {
			t.Fatalf("%s: %v", d.ID, err)
		}
		second, err := exp.Execute(d, o, nil)
		if err != nil {
			t.Fatalf("%s (second run): %v", d.ID, err)
		}
		summariesIdentical(t, d.ID+" run1-vs-run2", first.Summary, second.Summary)
		direct[i] = first
	}

	// Fleet run at -j 4: results must match the direct runs bit-for-bit.
	jobs := make([]Job, len(defs))
	for i, d := range defs {
		jobs[i] = Job{Def: d, Opts: exp.Options{Quiet: true, Duration: shortDuration(d.ID)}}
	}
	fleet := &Fleet{Workers: 4}
	results, stats := fleet.Run(jobs)
	if stats.Failed != 0 {
		for _, r := range results {
			if r.Err != nil {
				t.Errorf("fleet: %s failed: %v", r.Job.Label(), r.Err)
			}
		}
		t.FailNow()
	}
	for i, r := range results {
		if r.Job.Def.ID != defs[i].ID {
			t.Fatalf("fleet result %d is %s, want %s — order not preserved", i, r.Job.Def.ID, defs[i].ID)
		}
		summariesIdentical(t, defs[i].ID+" direct-vs-fleet", direct[i].Summary, r.Res.Summary)
	}
}

// countersIdentical reports whether two counter snapshots are equal: same
// names, same values.
func countersIdentical(t *testing.T, label string, a, b map[string]uint64) {
	t.Helper()
	for k, va := range a {
		vb, present := b[k]
		if !present {
			t.Errorf("%s: counter %q missing from second run", label, k)
			continue
		}
		if va != vb {
			t.Errorf("%s: counter %q differs: %d vs %d", label, k, va, vb)
		}
	}
	for k := range b {
		if _, present := a[k]; !present {
			t.Errorf("%s: counter %q appeared only in second run", label, k)
		}
	}
}

// TestTelemetryDeterminism extends the reproducibility contract to the
// observability layer: a sequential fleet and a parallel fleet with
// telemetry enabled produce bit-identical per-experiment counter snapshots
// and fleet totals (merge order is invisible), and enabling telemetry does
// not perturb the metric results a telemetry-off fleet produces.
func TestTelemetryDeterminism(t *testing.T) {
	defs := registered()
	if len(defs) == 0 {
		t.Fatal("registry is empty")
	}
	mkJobs := func() []Job {
		jobs := make([]Job, len(defs))
		for i, d := range defs {
			jobs[i] = Job{Def: d, Opts: exp.Options{Quiet: true, Duration: shortDuration(d.ID)}}
		}
		return jobs
	}
	mustRun := func(f *Fleet) ([]Result, Stats) {
		results, stats := f.Run(mkJobs())
		if stats.Failed != 0 {
			for _, r := range results {
				if r.Err != nil {
					t.Errorf("%s failed: %v", r.Job.Label(), r.Err)
				}
			}
			t.FailNow()
		}
		return results, stats
	}

	seqResults, seqStats := mustRun(&Fleet{Workers: 1, Telemetry: true})
	parResults, parStats := mustRun(&Fleet{Workers: 8, Telemetry: true})
	offResults, offStats := mustRun(&Fleet{Workers: 4})

	if len(seqStats.Counters) == 0 {
		t.Fatal("telemetry-on fleet produced no counters")
	}
	countersIdentical(t, "fleet totals seq-vs-par", seqStats.Counters, parStats.Counters)
	for i := range defs {
		id := defs[i].ID
		if len(seqResults[i].Res.Counters) == 0 {
			t.Errorf("%s: telemetry-on run recorded no counters", id)
		}
		countersIdentical(t, id+" counters seq-vs-par", seqResults[i].Res.Counters, parResults[i].Res.Counters)
		// Observability must not perturb results: metric summaries match the
		// telemetry-off fleet bit for bit.
		summariesIdentical(t, id+" summary on-vs-off", seqResults[i].Res.Summary, offResults[i].Res.Summary)
	}
	if offStats.Counters != nil {
		t.Errorf("telemetry-off fleet produced counters: %v", offStats.Counters)
	}
}
