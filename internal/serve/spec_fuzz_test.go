package serve

import (
	"bytes"
	"encoding/json"
	"regexp"
	"testing"

	"repro/internal/api"
	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/scengen"
)

// expandLimit is the largest accepted spec FuzzJobSpec expands: Validate
// admits up to api.MaxJobs, and one input must not make the fuzzer build a
// million jobs.
const expandLimit = 4096

// FuzzJobSpec feeds hostile bodies through the submit path's gates:
// decodeSpec, Validate, api.Expand. None may panic, and a spec Expand
// accepts expands to the job count Validate bounded — between 1 and
// api.MaxJobs.
func FuzzJobSpec(f *testing.F) {
	const ciBody = `{"schema_version":3,"kind":"suite","suite":{"filter":"E02","quick":true}}`
	for _, body := range []string{
		ciBody,
		ciBody + "\n",
		ciBody + `{"tag":"again"}`,
		ciBody + " garbage\n",
		"{not json",
		`{"kind":"suite","suite":{"filtr":"E02"}}`,
		`{"kind":"suite","suite":{"filter":"E02"},"scheduler":"wheel"}`,
		`{"kind":"bogus"}`,
		`{"kind":"suite","suite":{"filter":"["}}`,
		`{"kind":"suite","suite":{"filter":"^E01$","sweep":3},"workers":-1}`,
		`{"kind":"suite","suite":{"filter":"^E0[12]$","sweep":500001}}`,
		`{"kind":"suite","suite":{"filter":"no-such-experiment-zzz","sweep":1000001}}`,
		`{"kind":"suite","suite":{"filter":"","sweep":9223372036854775807}}`,
		`{"kind":"fuzz","fuzz":{"n":2,"families":["parkinglot"]}}`,
		`{"kind":"fuzz","fuzz":{"n":500001,"families":["waxman","fattree"]}}`,
		`{"kind":"fuzz","fuzz":{"n":1,"families":["no-such-family"]}}`,
		`{"kind":"scenario","scenario":{"text":"not a scenario {{{"}}`,
		`{"kind":"scenario","scenario":{}}`,
	} {
		f.Add([]byte(body))
	}
	huge := quickSuite("^E01$")
	huge.Suite.Sweep = api.MaxJobs
	fam, err := scengen.ParseFamily("parkinglot")
	if err != nil {
		f.Fatal(err)
	}
	_, text, err := scengen.Generate(fam, runner.DeriveSeed("fuzz/"+string(fam), 0))
	if err != nil {
		f.Fatal(err)
	}
	for _, spec := range []api.JobSpec{
		quickSuite("^E0[12]$"), quickSuite("^E0[123]$"), huge, fuzzSpec(300),
		{Kind: api.KindScenario, Scenario: &api.ScenarioSpec{Text: text, Name: "tiny", CrossCheck: true}},
	} {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		jobs := specJobs(spec)
		if jobs > api.MaxJobs {
			t.Fatalf("Validate accepted a spec of %d jobs: %s", jobs, body)
		}
		if jobs > expandLimit {
			return
		}
		e, err := api.Expand(spec, api.Env{Trace: true})
		if err != nil {
			return
		}
		if n := len(e.Jobs); n < 1 || n != jobs {
			t.Fatalf("accepted spec expanded to %d jobs, want %d (≥ 1): %s", n, jobs, body)
		}
	})
}

// specJobs counts the jobs a validated spec expands to, without expanding
// it: sweep points × matched experiments, scenarios × families, or one.
func specJobs(s api.JobSpec) int {
	switch s.Kind {
	case api.KindSuite:
		re := regexp.MustCompile(s.Suite.Filter) // Validate compiled it
		matched := 0
		exp.Walk(func(d exp.Definition) bool {
			if re.MatchString(d.ID) {
				matched++
			}
			return true
		})
		return max(s.Suite.Sweep, 1) * matched
	case api.KindFuzz:
		families := len(s.Fuzz.Families)
		if families == 0 {
			families = len(scengen.Families())
		}
		return s.Fuzz.N * families
	}
	return 1
}
