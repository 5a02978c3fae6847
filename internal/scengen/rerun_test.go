package scengen_test

import (
	"testing"

	"repro/internal/api"
	"repro/internal/runner"
	"repro/internal/scengen"
)

// TestRerunFingerprints: one scenario per family, run twice in one process,
// must leave identical fingerprints — the invariant behind the CrossCheck
// mode, which catches state leaking from one run into the next through the
// pools. The same draw then goes through the job API's scenario path with
// CrossCheck on, which must report no violation at all.
func TestRerunFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	for _, fam := range scengen.Families() {
		spec, text, err := scengen.Generate(fam, scengen.DeriveSeed(fam, 0))
		if err != nil {
			t.Fatal(err)
		}
		a, err := scengen.RunSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		b, err := scengen.RunSpec(spec)
		if err != nil {
			t.Fatalf("%s: re-run: %v", fam, err)
		}
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("%s: run and re-run disagree:\n  %s\nvs\n  %s\nscenario:\n%s", fam, a.Fingerprint, b.Fingerprint, text)
		}

		e, err := api.Expand(api.JobSpec{
			Kind:     api.KindScenario,
			Scenario: &api.ScenarioSpec{Text: text, CrossCheck: true},
		}, api.Env{})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		results, stats := (&runner.Fleet{Workers: 1}).Run(e.Jobs)
		if rr := e.Finish(results, stats).Results[0]; rr.Error != "" || len(rr.Violations) > 0 {
			t.Errorf("%s: cross-checked scenario job: error %q, violations %v", fam, rr.Error, rr.Violations)
		}
	}
}
