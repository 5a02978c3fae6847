package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/runner"
	"repro/internal/store"
)

// newTestServer starts a daemon over httptest and returns it with a client
// pointed at it. The caller owns Drain.
func newTestServer(t *testing.T, cfg Config) (*Server, *api.Client, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Drain()
		ts.Close()
	})
	return s, api.NewClient(ts.URL), ts
}

func quickSuite(filter string) api.JobSpec {
	return api.JobSpec{
		SchemaVersion: api.SchemaVersion,
		Kind:          api.KindSuite,
		Suite:         &api.SuiteSpec{Filter: filter, Quick: true},
		Workers:       2,
	}
}

// TestJobLifecycle drives the whole happy path over HTTP: submit, poll,
// stream results, and read the sealed store afterwards.
func TestJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	_, client, ts := newTestServer(t, Config{Dir: dir})

	st, err := client.Submit(quickSuite("^E0[12]$"))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Total != 2 {
		t.Fatalf("submit status = %+v, want 2 runs and an ID", st)
	}
	if st.Store != filepath.Join(dir, st.ID) {
		t.Errorf("store dir %q, want %q", st.Store, filepath.Join(dir, st.ID))
	}

	var runs []api.RunResult
	rep, err := client.Results(st.ID, func(rr api.RunResult) { runs = append(runs, rr) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Job == nil || rep.Job.State != api.JobDone {
		t.Fatalf("terminal report job = %+v, want done", rep.Job)
	}
	if len(runs) != 2 || runs[0].ID != "E01" || runs[1].ID != "E02" {
		t.Fatalf("streamed runs %+v, want [E01 E02] in submission order", runs)
	}
	for _, rr := range runs {
		if rr.Error != "" || rr.Canceled {
			t.Errorf("run %s: error=%q canceled=%v", rr.ID, rr.Error, rr.Canceled)
		}
		if len(rr.Summary) == 0 {
			t.Errorf("run %s: empty summary", rr.ID)
		}
	}

	// Status endpoint agrees after the fact.
	got, err := client.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobDone || got.Done != 2 || got.Failed != 0 {
		t.Errorf("final status %+v, want done 2/2", got)
	}
	list, err := client.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("job list %+v, want exactly the one job", list)
	}

	// The job's store sealed at finish and reads back as a campaign.
	r, err := store.Open(got.Store)
	if err != nil {
		t.Fatalf("job store did not open: %v", err)
	}
	var summaries int
	if err := r.Summaries(store.Query{}, func(store.RunSummary) error {
		summaries++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if summaries != 2 {
		t.Errorf("store has %d summary rows, want 2", summaries)
	}

	// The ops endpoints ride the same mux.
	for _, path := range []string{"/status", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if path == "/metrics" {
			if !bytes.Contains(body, []byte("phantom_fleet_runs")) ||
				!bytes.Contains(body, []byte("phantom_serve_jobs")) {
				t.Errorf("/metrics missing fleet/job gauges:\n%s", body)
			}
		}
	}
}

// TestSubmitRejects pins the error surface: bad specs 400, unknown jobs
// 404, all as api.Error envelopes. A raw body must be exactly one spec: an
// unknown field (the removed "scheduler" among them) or anything after the
// spec is a 400 naming the offending token, while the body CI submits with
// curl is accepted.
func TestSubmitRejects(t *testing.T) {
	_, client, ts := newTestServer(t, Config{})

	if _, err := client.Submit(api.JobSpec{Kind: "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Errorf("bad spec error = %v, want a 400", err)
	}
	huge := quickSuite("^E01$")
	huge.Suite.Sweep = api.MaxJobs + 1
	if _, err := client.Submit(huge); err == nil ||
		!strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "limit of 1000000 jobs") {
		t.Errorf("oversized sweep error = %v, want a 400 naming the job limit", err)
	}
	if _, err := client.Job("job-99999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job error = %v, want a 404", err)
	}

	const ciBody = `{"schema_version":3,"kind":"suite","suite":{"filter":"E02","quick":true}}`
	for _, tc := range []struct {
		name, body string
		code       int
		want       string
	}{
		{"not json", "{not json", http.StatusBadRequest, "invalid character"},
		{"unknown field", `{"kind":"suite","suite":{"filtr":"E02"}}`, http.StatusBadRequest, `"filtr"`},
		{"removed scheduler", `{"kind":"suite","suite":{"filter":"E02"},"scheduler":"wheel"}`, http.StatusBadRequest, `"scheduler"`},
		{"trailing object", ciBody + `{"tag":"again"}`, http.StatusBadRequest, "again"},
		{"trailing garbage", ciBody + " garbage\n", http.StatusBadRequest, "garbage"},
		{"ci curl body", ciBody + "\n", http.StatusAccepted, ""},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e api.Error
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d (%q), want %d", tc.name, resp.StatusCode, e.Message, tc.code)
		}
		if tc.want != "" && (err != nil || !strings.Contains(e.Message, "bad job spec") || !strings.Contains(e.Message, tc.want)) {
			t.Errorf("%s: error envelope = %+v (%v), want a bad job spec message containing %s", tc.name, e, err, tc.want)
		}
	}
}

// TestDeterminism is the API-redesign acceptance gate: a job run through
// the daemon produces byte-identical results and store bytes to a direct
// runner.Fleet run of the same expansion.
func TestDeterminism(t *testing.T) {
	spec := quickSuite("^E0[123]$")
	spec.Telemetry = true

	// Direct run, mirroring the daemon's env (store-backed, so tracing on).
	directDir := filepath.Join(t.TempDir(), "direct")
	expn, err := api.Expand(spec, api.Env{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := store.Create(directDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fleet := &runner.Fleet{Workers: spec.Workers, Telemetry: spec.Telemetry, Store: sw}
	results, stats := fleet.Run(expn.Jobs)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	directRep := expn.Finish(results, stats)

	// Daemon run of the same spec.
	daemonDir := t.TempDir()
	_, client, _ := newTestServer(t, Config{Dir: daemonDir})
	st, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	var daemonRuns []api.RunResult
	rep, err := client.Results(st.ID, func(rr api.RunResult) { daemonRuns = append(daemonRuns, rr) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Job.State != api.JobDone {
		t.Fatalf("daemon job state %s, want done", rep.Job.State)
	}

	// Results are identical modulo wall-clock cost.
	if len(daemonRuns) != len(directRep.Results) {
		t.Fatalf("daemon %d runs vs direct %d", len(daemonRuns), len(directRep.Results))
	}
	for i := range daemonRuns {
		a, b := daemonRuns[i], directRep.Results[i]
		a.WallMS, b.WallMS = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("run %d differs:\ndaemon %+v\ndirect %+v", i, a, b)
		}
	}

	// The store campaigns are byte-identical file for file.
	compareDirs(t, filepath.Join(daemonDir, st.ID), directDir)
}

// compareDirs asserts two campaign directories hold the same files with
// the same bytes.
func compareDirs(t *testing.T, a, b string) {
	t.Helper()
	la, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := os.ReadDir(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(la) != len(lb) {
		t.Fatalf("campaign dirs differ: %d files vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i].Name() != lb[i].Name() {
			t.Fatalf("file name mismatch: %s vs %s", la[i].Name(), lb[i].Name())
		}
		ba, err := os.ReadFile(filepath.Join(a, la[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(filepath.Join(b, lb[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Errorf("%s: %d bytes vs %d bytes, contents differ", la[i].Name(), len(ba), len(bb))
		}
	}
}

// fuzzSpec is a long-enough campaign that cancellation lands mid-flight.
func fuzzSpec(n int) api.JobSpec {
	return api.JobSpec{
		SchemaVersion: api.SchemaVersion,
		Kind:          api.KindFuzz,
		Fuzz:          &api.FuzzSpec{Families: []string{"parkinglot"}, N: n},
		Workers:       1,
	}
}

// TestCancelRunningJob cancels mid-campaign and checks the contract: every
// run still lands (as canceled), the stream terminates with a canceled
// job, and the store still seals readable.
func TestCancelRunningJob(t *testing.T) {
	dir := t.TempDir()
	_, client, _ := newTestServer(t, Config{Dir: dir})
	st, err := client.Submit(fuzzSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	cancelled := false
	rep, err := client.Results(st.ID, func(api.RunResult) {
		if !cancelled {
			cancelled = true
			if _, err := client.Cancel(st.ID); err != nil {
				t.Errorf("cancel: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Job.State != api.JobCanceled {
		t.Fatalf("job state %s, want canceled", rep.Job.State)
	}
	if rep.Job.Done != rep.Job.Total {
		t.Errorf("done %d of %d: canceled jobs must still land every run", rep.Job.Done, rep.Job.Total)
	}
	if rep.Job.CanceledRuns == 0 {
		t.Error("no runs were canceled — cancel landed after the campaign finished?")
	}
	// Graceful cancel still seals the store: canceled runs committed empty
	// segments, so the campaign is complete and readable.
	if _, err := store.Open(rep.Job.Store); err != nil {
		t.Fatalf("canceled job's store did not open: %v", err)
	}
}

// TestCancelQueuedJob uses a single-job worker pool: the second submission
// waits in queue, where cancellation is immediate and runs nothing.
func TestCancelQueuedJob(t *testing.T) {
	_, client, _ := newTestServer(t, Config{JobWorkers: 1})
	first, err := client.Submit(fuzzSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := client.Submit(quickSuite("^E01$"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobCanceled || st.Done != 0 {
		t.Fatalf("queued cancel status %+v, want canceled with nothing run", st)
	}
	// Its stream is just the terminal report.
	n := 0
	rep, err := client.Results(queued.ID, func(api.RunResult) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || rep.Job.State != api.JobCanceled {
		t.Errorf("queued-canceled stream: %d runs, state %s; want 0 runs, canceled", n, rep.Job.State)
	}
	if _, err := client.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
}

// TestDrain is the SIGTERM path: stop intake, cancel everything, land
// in-flight runs, seal stores — then reject new submissions with 503.
func TestDrain(t *testing.T) {
	dir := t.TempDir()
	s, client, ts := newTestServer(t, Config{Dir: dir, JobWorkers: 1})
	running, err := client.Submit(fuzzSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := client.Submit(quickSuite("^E01$"))
	if err != nil {
		t.Fatal(err)
	}

	s.Drain() // blocks until workers exit and stores seal

	for _, id := range []string{running.ID, queued.ID} {
		st, err := client.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if !st.State.Terminal() {
			t.Errorf("job %s state %s after drain, want terminal", id, st.State)
		}
	}
	st, err := client.Job(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Store != "" {
		if _, err := store.Open(st.Store); err != nil {
			t.Errorf("drained job's store did not open: %v", err)
		}
	}

	if _, err := client.Submit(quickSuite("^E01$")); err == nil ||
		!strings.Contains(err.Error(), "503") {
		t.Errorf("submit after drain = %v, want a 503", err)
	}
	// Idempotent.
	s.Drain()
	_ = ts
}
