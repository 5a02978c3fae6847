package scengen

import (
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/simconfig"
)

// TestGenerateDeterministic: equal (family, seed) must yield byte-identical
// canonical text; the first few seeds must not all collapse to one
// scenario.
func TestGenerateDeterministic(t *testing.T) {
	for _, fam := range Families() {
		distinct := map[string]bool{}
		for i := 0; i < 5; i++ {
			seed := runner.DeriveSeed("fuzz/"+string(fam), i)
			_, text1, err := Generate(fam, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", fam, seed, err)
			}
			_, text2, err := Generate(fam, seed)
			if err != nil {
				t.Fatalf("%s seed %d (second draw): %v", fam, seed, err)
			}
			if text1 != text2 {
				t.Errorf("%s seed %d: two draws differ:\n%s\nvs\n%s", fam, seed, text1, text2)
			}
			distinct[text1] = true
		}
		if len(distinct) < 2 {
			t.Errorf("%s: 5 seeds produced %d distinct scenarios", fam, len(distinct))
		}
	}
}

// TestDeriveSeedMatchesRunner pins the contract that lets anyone replay a
// campaign finding by hand: scenario (family, index) runs as the fleet job
// whose derived seed is runner.DeriveSeed("fuzz/"+family, index).
func TestDeriveSeedMatchesRunner(t *testing.T) {
	c, err := NewCampaign(CampaignConfig{N: 100})
	if err != nil {
		t.Fatal(err)
	}
	jobs := c.Jobs()
	for fi, fam := range Families() {
		for i := 0; i < 100; i++ {
			j := jobs[fi*100+i]
			if j.Def.ID != "fuzz/"+string(fam) || j.SweepIndex != i {
				t.Fatalf("scenario %s[%d] runs as job %s sweep %d", fam, i, j.Def.ID, j.SweepIndex)
			}
		}
	}
}

// TestFamiliesRunAndCheck: every family's first seeds build, run, and
// produce a checkable outcome; under Phantom no invariant may fire (a
// finding here is either a generator bug, an invariant miscalibration, or a
// real algorithm bug — all of which must surface, not scroll by).
func TestFamiliesRunAndCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	for _, fam := range Families() {
		for i := 0; i < 2; i++ {
			seed := runner.DeriveSeed("fuzz/"+string(fam), i)
			spec, text, err := Generate(fam, seed)
			if err != nil {
				t.Fatalf("%s[%d]: %v", fam, i, err)
			}
			o, err := RunSpec(spec)
			if err != nil {
				t.Fatalf("%s[%d]: run: %v\n%s", fam, i, err, text)
			}
			if vs := Check(o); len(vs) > 0 {
				t.Errorf("%s[%d] seed=%d violates invariants:\n%v\nscenario:\n%s", fam, i, seed, vs, text)
			}
		}
	}
}

// knownBad is an uncontrolled two-session overload: no algorithm, both
// sources greedy into one 50 Mb/s trunk, long enough for the queue to grow
// far past any burst allowance.
const knownBad = `switches 2
trunkrate 50
alg none
session a 0 1 greedy
session b 0 1 greedy
duration 400ms
`

// TestKnownBadCaughtMinimizedFrozen drives the full pipeline on a scenario
// that must fail: catch (queue-bound), minimize (a single greedy session
// still overloads the trunk), freeze, reload, replay.
func TestKnownBadCaughtMinimizedFrozen(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	spec, err := simconfig.Parse(strings.NewReader(knownBad))
	if err != nil {
		t.Fatal(err)
	}
	o, err := RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	vs := Check(o)
	if !HoldsFor(vs, "queue-bound") {
		t.Fatalf("uncontrolled overload not caught; violations: %v", vs)
	}

	min := Minimize(spec, "queue-bound")
	minText, err := simconfig.Emit(min)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(min.Config.Sessions); n != 1 {
		t.Errorf("minimizer kept %d sessions, want 1:\n%s", n, minText)
	}
	if min.Duration >= spec.Duration {
		t.Errorf("minimizer did not shrink duration: %v → %v", spec.Duration, min.Duration)
	}
	if !failsWith(min, "queue-bound") {
		t.Fatalf("minimized spec no longer fails:\n%s", minText)
	}

	f := &Finding{Family: "manual", Index: 0, Seed: 0, Text: knownBad,
		Violations: vs, Minimized: minText}
	dir := t.TempDir()
	path, err := Freeze(f, dir)
	if err != nil {
		t.Fatal(err)
	}
	cases, err := LoadFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 1 || cases[0].Path != path {
		t.Fatalf("LoadFrozen found %d cases, want the one at %s", len(cases), path)
	}
	if len(cases[0].ExpectViolations) == 0 || cases[0].ExpectViolations[0] != "queue-bound" {
		t.Fatalf("frozen expectations = %v, want [queue-bound]", cases[0].ExpectViolations)
	}
	if missing := Replay(&cases[0]); len(missing) > 0 {
		t.Fatalf("frozen case no longer reproduces: %v", missing)
	}
}

// TestFrozenRegressions replays every committed regression file: each one
// is a minimized scenario that once violated an invariant and must keep
// violating it until the underlying behavior is deliberately changed (then
// the file should be deleted or re-frozen).
func TestFrozenRegressions(t *testing.T) {
	cases, err := LoadFrozen("testdata/fuzz-regressions")
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("no frozen regression cases committed")
	}
	for i := range cases {
		c := &cases[i]
		if len(c.ExpectViolations) == 0 {
			t.Errorf("%s: no expect-violation header", c.Path)
			continue
		}
		if missing := Replay(c); len(missing) > 0 {
			t.Errorf("%s (%s): expected violations no longer reproduce: %v",
				c.Path, c.Origin, missing)
		}
	}
}

// TestCampaignWorkerInvariance: the same campaign on 1 worker and 4 workers
// must produce byte-identical reports — seeds come from (family, index),
// never from scheduling.
func TestCampaignWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	run := func(workers int) *CampaignReport {
		rep, err := RunCampaign(CampaignConfig{
			Families: []Family{FlashCrowd, Transient},
			N:        2,
		}, workers)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r4 := run(1), run(4)
	if r1.Summary() != r4.Summary() {
		t.Fatalf("worker count changed the report:\n-- j=1 --\n%s\n-- j=4 --\n%s", r1.Summary(), r4.Summary())
	}
	if r1.Scenarios != 4 {
		t.Fatalf("campaign ran %d scenarios, want 4", r1.Scenarios)
	}
}

// TestActivityAnalysis pins the Pattern-walking helpers on the window
// pattern, whose change points are exact.
func TestActivityAnalysis(t *testing.T) {
	spec, err := simconfig.Parse(strings.NewReader(
		"session w 0 1 window 10ms 50ms\nsession g 0 1 greedy\nduration 300ms\n"))
	if err != nil {
		t.Fatal(err)
	}
	w := spec.Config.Sessions[0].Pattern
	g := spec.Config.Sessions[1].Pattern
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }
	if activeThroughout(w, ms(0), ms(60)) {
		t.Error("window 10–50ms is not active on [0,60ms]")
	}
	if !activeThroughout(w, ms(10), ms(50)) {
		t.Error("window 10–50ms is active on [10,50ms]")
	}
	if !stoppedForever(w, ms(50)) {
		t.Error("window is over at 50ms")
	}
	if stoppedForever(w, ms(20)) {
		t.Error("window is live at 20ms")
	}
	if !activeThroughout(g, 0, ms(300)) || stoppedForever(g, ms(299)) {
		t.Error("greedy is always active")
	}
}

// TestSwitchesSpellingSameRun: the switches/trunk shorthand and its
// hand-written nodes/edge/accessrate expansion are one scenario — equal
// fingerprints, fired-event count included, at 1, 2 and 4 shards with no
// partition line. (Which partition that is, the fingerprint cannot say —
// moving a cut moves no event count — so scenario.TestChainShapedPartition
// reads it off the plan.)
func TestSwitchesSpellingSameRun(t *testing.T) {
	const common = `trunkrate 100
trunkdelay 20us
alg phantom u=5
session long 0 5 greedy
session mid 1 4 greedy
session hop 2 3 onoff 4ms 3ms
at 10ms rate 1 25
duration 30ms
`
	const short = "switches 6\ntrunk 3 50\n" + common
	const long = "nodes 6\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 4 rate=50\nedge 4 5\naccessrate 150\n" + common
	run := func(text string) string {
		t.Helper()
		spec, err := simconfig.Parse(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		o, err := RunSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return o.Fingerprint
	}
	for _, shards := range []string{"", "shards 2\n", "shards 4\n"} {
		a, b := run(short+shards), run(long+shards)
		if a != b {
			t.Errorf("%q: spellings ran differently:\nswitches: %s\nnodes:    %s", shards, a, b)
		}
	}
}
