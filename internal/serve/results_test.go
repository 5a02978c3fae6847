package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
)

// runJobs queues a job that runs jobs (after a real E01 quick run, job 0)
// on one worker and returns it.
func runJobs(t *testing.T, s *Server, jobs ...runner.Job) *job {
	t.Helper()
	spec := quickSuite("^E01$")
	spec.Workers, spec.Telemetry = 1, true
	expn, err := api.Expand(spec, api.Env{Trace: s.cfg.Dir != ""})
	if err != nil {
		t.Fatal(err)
	}
	expn.Jobs = append(expn.Jobs, jobs...)
	j, err := s.enqueue(spec, expn)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// fixedJob is a job whose run returns res (as experiment id) and err.
func fixedJob(id string, res *exp.Result, err error) runner.Job {
	if res != nil {
		res.ID = id
	}
	return runner.Job{Def: exp.Definition{ID: id, Title: id, Default: sim.Millisecond,
		Run: func(exp.Options) (*exp.Result, error) { return res, err }}}
}

// rawResults fetches the job's /results body as it arrives on the wire.
func rawResults(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + api.PathPrefix + "/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestResultsBodyMatchesEncoder: the raw /results body of a daemon-run job
// is json.Encoder over the job's RunResults plus its report line, byte for
// byte — for a real E01 run with telemetry, a run whose summary keys and
// note need escaping, an error run and a cancelled run — and the client
// decodes every line to what json.Unmarshal makes of it.
func TestResultsBodyMatchesEncoder(t *testing.T) {
	s, client, ts := newTestServer(t, Config{})
	started, release := make(chan struct{}), make(chan struct{})
	j := runJobs(t, s,
		fixedJob("notes", &exp.Result{
			Summary: map[string]float64{"a<b": 1.5, "débit": 2e-7, "z": -0.25},
			Notes:   []string{"<b>fair & square</b>", "débit ≈ u·C/(1+2u) · 日本語"},
		}, nil),
		fixedJob("fails", nil, errors.New("boom: <&> ü")),
		runner.Job{Def: exp.Definition{ID: "blocks", Title: "blocks", Default: sim.Millisecond,
			Run: func(exp.Options) (*exp.Result, error) {
				close(started)
				<-release
				return &exp.Result{ID: "blocks", Summary: map[string]float64{"x": 1}}, nil
			}}},
		fixedJob("never", &exp.Result{}, nil),
	)
	<-started
	if _, err := client.Cancel(j.id); err != nil {
		t.Fatal(err)
	}
	close(release)

	var runs []api.RunResult
	rep, err := client.Results(j.id, func(rr api.RunResult) { runs = append(runs, rr) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Job == nil || rep.Job.State != api.JobCanceled {
		t.Fatalf("report job %+v, want canceled", rep.Job)
	}
	results, _, terminal := j.watch(0)
	if !terminal || len(results) != 5 {
		t.Fatalf("%d results, terminal %v: want all 5 landed", len(results), terminal)
	}
	if results[0].Summary == nil || results[0].Counters == nil || results[2].Error == "" || !results[4].Canceled {
		t.Fatalf("the job lacks a shape it should stream: %+v", results)
	}

	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i := range results {
		enc.Encode(api.ResultLine{Run: &results[i]})
	}
	enc.Encode(api.ResultLine{Report: j.report()})
	body := rawResults(t, ts.URL, j.id)
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("/results body differs from json.Encoder's\n got %q\nwant %q", body, want.Bytes())
	}
	if !bytes.Contains(body, []byte(`\u003cb\u003efair \u0026 square`)) {
		t.Fatalf("the note's HTML characters are not escaped in %s", body)
	}

	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(runs) != len(lines)-1 {
		t.Fatalf("client saw %d runs, body has %d run lines", len(runs), len(lines)-1)
	}
	for i, line := range lines[:len(runs)] {
		var l api.ResultLine
		if err := json.Unmarshal(line, &l); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(runs[i], *l.Run) {
			t.Errorf("run %d: client decoded %+v, json.Unmarshal %+v", i, runs[i], *l.Run)
		}
	}
}

// TestNonFiniteSummaryFailsTheRun: a NaN or ±Inf summary value has no JSON
// form. The run still reaches the results stream, with the value taken out
// of its summary and named in its error, and counts as failed in the job
// status and in the stream's report; the store keeps the raw value; and a
// local run's report (Expansion.Finish) marshals, with the same error and
// the same failed count.
func TestNonFiniteSummaryFailsTheRun(t *testing.T) {
	bad := &exp.Result{Summary: map[string]float64{"decayed": math.NaN(), "fine": 3, "runaway": math.Inf(-1)}}
	const wantErr = "summary values with no JSON form: decayed=NaN, runaway=-Inf"

	s, client, _ := newTestServer(t, Config{Dir: t.TempDir()})
	j := runJobs(t, s, fixedJob("nan", bad, nil))
	var runs []api.RunResult
	rep, err := client.Results(j.id, func(rr api.RunResult) { runs = append(runs, rr) })
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("the stream carried %d runs, want 2", len(runs))
	}
	if got := runs[1]; got.Error != wantErr || !reflect.DeepEqual(got.Summary, map[string]float64{"fine": 3}) {
		t.Fatalf("streamed run: error %q summary %v", got.Error, got.Summary)
	}
	if st := rep.Job; st.State != api.JobDone || st.Failed != 1 || st.Done != 2 {
		t.Fatalf("job status %+v, want done with 1 of 2 runs failed", st)
	}
	if rep.Stats.Failed != 1 {
		t.Fatalf("the stream's report counts %d failed runs, want 1", rep.Stats.Failed)
	}
	r, err := store.Open(j.storeDir)
	if err != nil {
		t.Fatal(err)
	}
	var stored []string
	if err := r.Summaries(store.Query{Experiment: "nan", Sweep: store.AnySweep}, func(rs store.RunSummary) error {
		for i, name := range rs.Names {
			stored = append(stored, name+"="+strconv.FormatFloat(rs.Values[i], 'g', -1, 64))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(stored, " "); got != "decayed=NaN fine=3 runaway=-Inf" {
		t.Fatalf("the store holds %s, want the raw values", got)
	}

	expn, err := api.Expand(quickSuite("^E01$"), api.Env{})
	if err != nil {
		t.Fatal(err)
	}
	expn.Jobs = append(expn.Jobs, fixedJob("nan", bad, nil))
	results, stats := (&runner.Fleet{Workers: 1}).Run(expn.Jobs)
	out, err := json.Marshal(expn.Finish(results, stats))
	if err != nil {
		t.Fatalf("the local report does not marshal: %v", err)
	}
	var local api.Report
	if err := json.Unmarshal(out, &local); err != nil {
		t.Fatal(err)
	}
	if got := local.Results[1]; got.Error != wantErr || len(got.Summary) != 1 {
		t.Fatalf("local run: error %q summary %v", got.Error, got.Summary)
	}
	if local.Stats.Failed != 1 {
		t.Fatalf("the local report counts %d failed runs, want 1", local.Stats.Failed)
	}
	if !math.IsNaN(bad.Summary["decayed"]) {
		t.Fatal("Convert edited the run's own summary")
	}
}
