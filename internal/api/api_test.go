package api

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/scengen"
)

func suiteSpec(filter string) JobSpec {
	return JobSpec{
		SchemaVersion: SchemaVersion,
		Kind:          KindSuite,
		Suite:         &SuiteSpec{Filter: filter, Quick: true},
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*JobSpec)
		wantErr string
	}{
		{"valid suite", func(s *JobSpec) {}, ""},
		{"zero schema version ok", func(s *JobSpec) { s.SchemaVersion = 0 }, ""},
		{"wrong schema version", func(s *JobSpec) { s.SchemaVersion = 99 }, "schema_version"},
		{"no payload", func(s *JobSpec) { s.Suite = nil }, "exactly one"},
		{"two payloads", func(s *JobSpec) { s.Fuzz = &FuzzSpec{N: 1} }, "exactly one"},
		{"kind/payload mismatch", func(s *JobSpec) {
			s.Kind = KindFuzz
		}, "without a fuzz payload"},
		{"unknown kind", func(s *JobSpec) { s.Kind = "bogus" }, "unknown job kind"},
		{"negative workers", func(s *JobSpec) { s.Workers = -1 }, "workers"},
		{"negative sweep", func(s *JobSpec) { s.Suite.Sweep = -2 }, "sweep"},
		{"scenario needs text", func(s *JobSpec) {
			s.Kind, s.Suite, s.Scenario = KindScenario, nil, &ScenarioSpec{}
		}, "without text"},
		{"fuzz needs n", func(s *JobSpec) {
			s.Kind, s.Suite, s.Fuzz = KindFuzz, nil, &FuzzSpec{}
		}, "n > 0"},
		{"bad filter", func(s *JobSpec) { s.Suite.Filter = "[" }, "bad filter"},
		{"sweep at the job limit", func(s *JobSpec) { s.Suite.Sweep = MaxJobs }, ""},
		{"sweep over the job limit", func(s *JobSpec) { s.Suite.Sweep = MaxJobs + 1 }, "limit of 1000000 jobs"},
		{"sweep x experiments over the job limit", func(s *JobSpec) {
			s.Suite.Filter, s.Suite.Sweep = "^E0[12]$", MaxJobs/2+1
		}, "limit of 1000000 jobs"},
		{"sweep that would overflow a product", func(s *JobSpec) {
			s.Suite.Filter, s.Suite.Sweep = "", int(^uint(0)>>1)
		}, "limit of 1000000 jobs"},
		{"huge sweep of nothing", func(s *JobSpec) {
			s.Suite.Filter, s.Suite.Sweep = "no-such-experiment-zzz", MaxJobs+1
		}, ""},
		{"fuzz at the job limit", func(s *JobSpec) {
			s.Kind, s.Suite, s.Fuzz = KindFuzz, nil, &FuzzSpec{N: MaxJobs / 2, Families: []string{"waxman", "fattree"}}
		}, ""},
		{"fuzz n x families over the job limit", func(s *JobSpec) {
			s.Kind, s.Suite, s.Fuzz = KindFuzz, nil, &FuzzSpec{N: MaxJobs/2 + 1, Families: []string{"waxman", "fattree"}}
		}, "limit of 1000000 jobs"},
		{"fuzz n x all families over the job limit", func(s *JobSpec) {
			s.Kind, s.Suite, s.Fuzz = KindFuzz, nil, &FuzzSpec{N: MaxJobs/len(scengen.Families()) + 1}
		}, "limit of 1000000 jobs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := suiteSpec("E01")
			tc.mutate(&spec)
			err := spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestExpandSuiteSweep(t *testing.T) {
	spec := suiteSpec("^E01$")
	spec.Suite.Sweep = 3
	e, err := Expand(spec, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Jobs) != 3 {
		t.Fatalf("got %d jobs, want 3", len(e.Jobs))
	}
	wantLabels := []string{"E01", "E01#1", "E01#2"}
	for i, j := range e.Jobs {
		if j.Label() != wantLabels[i] {
			t.Errorf("job %d label %q, want %q", i, j.Label(), wantLabels[i])
		}
		if j.SweepIndex != i {
			t.Errorf("job %d sweep index %d, want %d", i, j.SweepIndex, i)
		}
	}
}

func TestExpandRejects(t *testing.T) {
	if _, err := Expand(suiteSpec("no-such-experiment-zzz"), Env{}); err == nil {
		t.Error("Expand matched nothing but did not error")
	}
	bad := suiteSpec("E01")
	bad.Suite.Filter = "["
	if _, err := Expand(bad, Env{}); err == nil {
		t.Error("Expand accepted an invalid filter regexp")
	}
	scen := JobSpec{Kind: KindScenario, Scenario: &ScenarioSpec{Text: "not a scenario {{{"}}
	if _, err := Expand(scen, Env{}); err == nil {
		t.Error("Expand accepted unparseable scenario text")
	}
}

func TestExpandTraceAttachesRecorders(t *testing.T) {
	e, err := Expand(suiteSpec("^E01$"), Env{Trace: true, TraceRingCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	if e.Jobs[0].TraceCap != 16 {
		t.Fatalf("Trace env marked the job TraceCap %d, want 16", e.Jobs[0].TraceCap)
	}
	if e.Jobs[0].Opts.Trace != nil {
		t.Fatal("Expand allocated a recorder: the rings belong to the fleet's workers")
	}
	e1, err := Expand(suiteSpec("^E01$"), Env{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if e1.Jobs[0].TraceCap != TraceRingDefault {
		t.Fatalf("default TraceCap %d, want %d", e1.Jobs[0].TraceCap, TraceRingDefault)
	}
	e2, err := Expand(suiteSpec("^E01$"), Env{})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Jobs[0].TraceCap != 0 || e2.Jobs[0].Opts.Trace != nil {
		t.Fatal("job marked for recording without Trace env")
	}

	// All three kinds carry the intent.
	fuzz, err := Expand(JobSpec{Kind: KindFuzz, Fuzz: &FuzzSpec{N: 2, Families: []string{"parkinglot"}}}, Env{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range fuzz.Jobs {
		if j.TraceCap != TraceRingDefault || j.Opts.Trace != nil {
			t.Fatalf("fuzz job %d: TraceCap %d, Opts.Trace %v", i, j.TraceCap, j.Opts.Trace)
		}
	}
}

// TestExpandCostPerRun pins what the worker-resident recorders bought: a
// recorded run costs its job entry to expand, not a ring (which at
// TraceRingDefault was 1.1 MB per run, alive as long as the expansion).
func TestExpandCostPerRun(t *testing.T) {
	spec := suiteSpec("^E01$")
	spec.Suite.Sweep = 250
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := Expand(spec, Env{Trace: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(e.Jobs))
	if len(e.Jobs) != 250 || perRun >= 4096 {
		t.Fatalf("Expand allocated %.0f B per run over %d runs, want < 4096", perRun, len(e.Jobs))
	}
}

// TestExpandScenario runs a tiny scenario end to end through the expansion
// and checks violations surface on the converted result.
func TestExpandScenario(t *testing.T) {
	// A generated scenario guarantees valid simconfig text without pinning
	// this test to the dialect's syntax.
	fam, err := scengen.ParseFamily("parkinglot")
	if err != nil {
		t.Fatal(err)
	}
	_, text, err := scengen.Generate(fam, scengen.DeriveSeed(fam, 0))
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{
		Kind:     KindScenario,
		Scenario: &ScenarioSpec{Text: text, Name: "tiny"},
	}
	e, err := Expand(spec, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Jobs) != 1 {
		t.Fatalf("got %d jobs, want 1", len(e.Jobs))
	}
	fleet := &runner.Fleet{Workers: 1}
	results, stats := fleet.Run(e.Jobs)
	rr := e.Finish(results, stats).Results[0]
	if rr.ID != "tiny" {
		t.Errorf("result ID %q, want tiny", rr.ID)
	}
	if rr.Error != "" {
		t.Fatalf("scenario failed: %s", rr.Error)
	}
	if _, ok := rr.Summary["violations"]; !ok {
		t.Error("scenario summary missing violations metric")
	}
	found := false
	for _, n := range rr.Notes {
		if strings.HasPrefix(n, "fingerprint: ") {
			found = true
		}
	}
	if !found {
		t.Errorf("scenario notes %v missing fingerprint", rr.Notes)
	}
}

// TestReportRoundTrip pins the v3 wire shape: a report survives a JSON
// round trip with its schema version intact.
func TestReportRoundTrip(t *testing.T) {
	rep := NewReport(KindSuite, []RunResult{{ID: "E01", SimNS: 123, Summary: map[string]float64{"x": 1}}}, runner.Stats{Runs: 1, Workers: 2})
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != SchemaVersion {
		t.Errorf("schema version %d, want %d", back.SchemaVersion, SchemaVersion)
	}
	if back.Kind != KindSuite || len(back.Results) != 1 || back.Results[0].ID != "E01" {
		t.Errorf("round trip mangled report: %+v", back)
	}
	if back.Stats.Workers != 2 {
		t.Errorf("stats lost in round trip: %+v", back.Stats)
	}
}

func TestNewClientNormalizesAddr(t *testing.T) {
	cases := map[string]string{
		":8080":                  "http://localhost:8080",
		"example.com:9999":       "http://example.com:9999",
		"http://example.com/":    "http://example.com",
		"https://phantom.lan:81": "https://phantom.lan:81",
	}
	for in, want := range cases {
		if got := NewClient(in).Base; got != want {
			t.Errorf("NewClient(%q).Base = %q, want %q", in, got, want)
		}
	}
}
