package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/cli"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// writeSyntheticCampaign builds a sealed campaign of runs runs under dir:
// run i carries a 32-point "acr" series at T = 1_000_000i+1000p, a summary,
// counters, and a couple of trace events. Small blocks and files force a
// real multi-block, multi-file index so pushdown has something to skip.
func writeSyntheticCampaign(t *testing.T, dir string, runs int) {
	t.Helper()
	w, err := store.Create(dir, store.Options{SlotsPerFile: 64, BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		base := sim.Time(1_000_000 * i)
		seg := w.NewSegment(store.RunMeta{Experiment: "synth/acr", Sweep: i, End: base + 31_000})
		pts := make([]metrics.Point, 32)
		for p := range pts {
			pts[p] = metrics.Point{T: base + sim.Time(1000*p), V: float64(i) + float64(p)/32}
		}
		seg.AddSeries("acr", pts)
		seg.AddSummary(map[string]float64{"goodput": float64(i), "jain": 1 / float64(i+1)})
		seg.AddCounters(map[string]uint64{"link.cells_sent": uint64(i + 1)})
		seg.AddTrace([]trace.Event{
			{T: base, Component: "SRC0", Kind: "start"},
			{T: base + 31_000, Component: "SRC0", Kind: "stop"},
		})
		if err := w.Append(seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteMatchesLocal is the acceptance criterion in miniature: for a
// spread of filters and output modes, rendering through the daemon's
// analytics endpoints must be byte-identical to rendering the same
// campaign directory locally.
func TestRemoteMatchesLocal(t *testing.T) {
	dir := t.TempDir()
	campaign := filepath.Join(dir, "job-00001")
	writeSyntheticCampaign(t, campaign, 20)

	_, client, _ := newTestServer(t, Config{Dir: dir})

	cases := []struct {
		name string
		opts cli.TraceQueryOpts
	}{
		{"series-all", cli.TraceQueryOpts{Query: store.Query{Name: "acr", Sweep: store.AnySweep}}},
		{"series-windowed", cli.TraceQueryOpts{Query: store.Query{
			Name: "acr", Sweep: store.AnySweep, From: 3_000_000, To: 3_010_000}}},
		{"series-sweep", cli.TraceQueryOpts{Query: store.Query{
			Experiment: "synth/acr", Name: "acr", Sweep: 7}}},
		{"results", cli.TraceQueryOpts{Query: store.Query{Sweep: store.AnySweep}, Results: true}},
		{"counters", cli.TraceQueryOpts{Query: store.Query{Sweep: store.AnySweep}, Counters: true}},
		{"trace-events", cli.TraceQueryOpts{Query: store.Query{
			Component: "SRC0", Sweep: store.AnySweep, To: 2_000_000}}},
		{"trace-summary", cli.TraceQueryOpts{Query: store.Query{Sweep: store.AnySweep}, Summary: true}},
		{"trace-jsonl", cli.TraceQueryOpts{Query: store.Query{Sweep: 3}, JSON: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := store.Open(campaign)
			if err != nil {
				t.Fatal(err)
			}
			var local bytes.Buffer
			if err := cli.RunTraceQuery(&local, api.LocalSource{R: r}, tc.opts); err != nil {
				t.Fatal(err)
			}
			remoteSrc := &api.RemoteSource{C: client, Job: "job-00001"}
			var remote bytes.Buffer
			if err := cli.RunTraceQuery(&remote, remoteSrc, tc.opts); err != nil {
				t.Fatal(err)
			}
			if local.String() != remote.String() {
				t.Fatalf("remote output differs from local.\nlocal:\n%s\nremote:\n%s", &local, &remote)
			}
			if local.Len() == 0 {
				t.Fatal("empty output proves nothing — filters matched no rows")
			}
			// The daemon's trailer reports the same pushdown the local
			// reader did.
			lst, rst := api.WireScanStats(r.Stats()), remoteSrc.Stats()
			if lst != rst {
				t.Errorf("scan stats differ: local %+v, remote %+v", lst, rst)
			}
		})
	}
}

// TestQueryBodiesMatchEncoder: the raw bodies of the row endpoints — the
// summary rows the daemon writes without reflection among them — are the
// bytes json.Encoder renders from the local reader's rows, and their
// trailers carry the local reader's stats. The data is a daemon-run
// E01/E02 sweep with telemetry and traces, whose summary blocks sit
// between trace blocks, and an adopted campaign carrying series.
func TestQueryBodiesMatchEncoder(t *testing.T) {
	dir := t.TempDir()
	writeSyntheticCampaign(t, filepath.Join(dir, "synth"), 300)
	_, client, ts := newTestServer(t, Config{Dir: dir})
	spec := quickSuite("^E0[12]$")
	spec.Suite.Sweep = 3
	spec.Telemetry = true
	st, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := client.Results(st.ID, nil); err != nil || rep.Job.State != api.JobDone {
		t.Fatalf("job %s: %v, %+v", st.ID, err, rep.Job)
	}

	all := store.Query{Sweep: store.AnySweep}
	for _, tc := range []struct {
		job, endpoint string
		q             store.Query
	}{
		{st.ID, "summary", all},
		{st.ID, "counters", all},
		{"synth", "summary", all},
		{"synth", "counters", all},
		{"synth", "series", store.Query{Name: "acr", Sweep: store.AnySweep}},
		{"synth", "series", store.Query{Name: "acr", Sweep: store.AnySweep, From: 40_010_000, To: 120_020_000}},
	} {
		r, err := store.Open(filepath.Join(dir, tc.job))
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		switch tc.endpoint {
		case "summary":
			err = r.Summaries(tc.q, func(rs store.RunSummary) error {
				return enc.Encode(api.SummaryRow{Experiment: rs.Experiment, Sweep: rs.Sweep, AtNS: int64(rs.At), Summary: rs.Summary})
			})
		case "counters":
			err = r.Counters(tc.q, func(rc store.RunCounters) error {
				return enc.Encode(api.CountersRow{Experiment: rc.Experiment, Sweep: rc.Sweep, AtNS: int64(rc.At), Counters: rc.Counters})
			})
		case "series":
			err = r.Series(tc.q, func(c store.SeriesChunk) error {
				return enc.Encode(api.SeriesRow{Experiment: c.Experiment, Sweep: c.Sweep, Name: c.Name, Points: c.Points})
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		wantTrailer, _ := json.Marshal(api.WireScanStats(r.Stats()))

		resp, err := http.Get(ts.URL + api.PathPrefix + "/jobs/" + tc.job + "/" + tc.endpoint + "?" + api.QueryValues(tc.q).Encode())
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		ctx := fmt.Sprintf("%s /%s %+v", tc.job, tc.endpoint, tc.q)
		if want.Len() == 0 {
			t.Fatalf("%s: no rows, so the comparison proves nothing", ctx)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("%s: body differs from json.Encoder's rendering\n got %.300q\nwant %.300q", ctx, body, want.Bytes())
		}
		if got := resp.Trailer.Get(api.TrailerScanStats); got != string(wantTrailer) {
			t.Errorf("%s: trailer %s, local reader %s", ctx, got, wantTrailer)
		}
	}
}

// TestWindowedSeriesPushdown is the other half of the acceptance
// criterion: a windowed series query on a multi-thousand-run campaign must
// decompress only the matching blocks and walk only the file holding them,
// asserted through the trailer's ScanStats and /metrics.
func TestWindowedSeriesPushdown(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-run campaign build")
	}
	dir := t.TempDir()
	const runs = 3000
	writeSyntheticCampaign(t, filepath.Join(dir, "job-00001"), runs)

	_, client, ts := newTestServer(t, Config{Dir: dir})

	// One run's window: of the 3000 series blocks, exactly one contains
	// [1_234_000_000, 1_234_031_000].
	var rows int
	stats, err := client.QueryNDJSON(
		api.PathPrefix+"/jobs/job-00001/series",
		api.QueryValues(store.Query{Name: "acr", Sweep: store.AnySweep, From: 1_234_000_000, To: 1_234_031_000}),
		func([]byte) error { rows++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rows != 1 {
		t.Fatalf("windowed query returned %d rows, want 1", rows)
	}
	if stats.Blocks != runs {
		t.Fatalf("index considered %d series blocks, want %d", stats.Blocks, runs)
	}
	if stats.BlocksScanned != 1 {
		t.Fatalf("decompressed %d blocks for a one-block window, want 1 (pushdown broken)", stats.BlocksScanned)
	}
	if stats.BlocksSkipped != runs-1 {
		t.Fatalf("skipped %d blocks, want %d", stats.BlocksSkipped, runs-1)
	}
	// Runs' windows are disjoint, so every file but the one holding run
	// 1234's series block is ruled out by its zone and never walked.
	if stats.Files < 2 || stats.FilesSkipped != stats.Files-1 {
		t.Fatalf("skipped %d of %d files whole, want all but the one holding the run", stats.FilesSkipped, stats.Files)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if want := fmt.Sprintf("phantom_query_files{result=\"skipped\"} %d\n", stats.FilesSkipped); !strings.Contains(string(body), want) {
		t.Errorf("missing %q in /metrics:\n%s", want, body)
	}
}

// TestAdoptCampaigns: a daemon restarted over an existing data root serves
// the previous life's campaigns as adopted jobs, and new submissions never
// collide with adopted job-NNNNN directories.
func TestAdoptCampaigns(t *testing.T) {
	dir := t.TempDir()
	writeSyntheticCampaign(t, filepath.Join(dir, "job-00003"), 2)
	writeSyntheticCampaign(t, filepath.Join(dir, "imported"), 2)
	// A junk subdirectory without .pdb files must not become a job.
	os.MkdirAll(filepath.Join(dir, "scratch"), 0o755)

	_, client, _ := newTestServer(t, Config{Dir: dir})

	jobs, err := client.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]api.JobStatus{}
	for _, j := range jobs {
		byID[j.ID] = j
	}
	for _, id := range []string{"job-00003", "imported"} {
		j, ok := byID[id]
		if !ok {
			t.Fatalf("campaign %s not adopted (jobs: %v)", id, jobs)
		}
		if !j.Adopted || j.State != api.JobDone {
			t.Errorf("%s status = %+v, want adopted and done", id, j)
		}
	}
	if _, ok := byID["scratch"]; ok {
		t.Error("empty directory adopted as a job")
	}

	// The adopted store answers queries.
	var rows int
	if _, err := client.QueryNDJSON(api.PathPrefix+"/jobs/imported/summary",
		api.QueryValues(store.Query{Sweep: store.AnySweep}),
		func([]byte) error { rows++; return nil }); err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Fatalf("adopted campaign served %d summaries, want 2", rows)
	}

	// New submissions skip past the adopted job-00003.
	st, err := client.Submit(quickSuite("^E01$"))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-00004" {
		t.Fatalf("first submission after adoption got ID %s, want job-00004", st.ID)
	}
	if _, err := client.Results(st.ID, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCrossJobQuery fans one query over several stores and checks the
// sweep-aligned aggregation on both kinds.
func TestCrossJobQuery(t *testing.T) {
	dir := t.TempDir()
	writeSyntheticCampaign(t, filepath.Join(dir, "a"), 3)
	writeSyntheticCampaign(t, filepath.Join(dir, "b"), 3)

	_, client, _ := newTestServer(t, Config{Dir: dir})

	var aggs []api.AggregateRow
	stats, err := client.CrossSummaries(nil, store.Query{Sweep: store.AnySweep}, func(r api.AggregateRow) error {
		aggs = append(aggs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != 2 {
		t.Fatalf("cross query visited %d jobs, want 2", stats.Jobs)
	}
	// 3 sweeps × 2 metrics, sorted by (experiment, sweep, metric).
	if len(aggs) != 6 {
		t.Fatalf("got %d aggregate rows, want 6: %+v", len(aggs), aggs)
	}
	// Sweep 1's goodput is 1.0 in both stores: 2 runs, sum 2, mean 1.
	want := api.AggregateRow{Experiment: "synth/acr", Sweep: 1, Metric: "goodput",
		Runs: 2, Sum: 2, Mean: 1, Min: 1, Max: 1}
	if aggs[2] != want {
		t.Errorf("aggregate row = %+v, want %+v", aggs[2], want)
	}

	var crows []api.CountersRow
	if _, err := client.CrossCounters([]string{"a", "b"}, store.Query{Sweep: store.AnySweep}, func(r api.CountersRow) error {
		crows = append(crows, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(crows) != 3 {
		t.Fatalf("got %d counters rows, want 3", len(crows))
	}
	// Sweep 2: both stores counted link.cells_sent = 3; counters sum-merge.
	if crows[2].Runs != 2 || crows[2].Counters["link.cells_sent"] != 6 {
		t.Errorf("merged counters row = %+v, want 2 runs and cells_sent 6", crows[2])
	}

	// Unknown job IDs are a 404, not a silent empty answer.
	if _, err := client.CrossSummaries([]string{"nope"}, store.Query{Sweep: store.AnySweep}, nil); err == nil {
		t.Fatal("cross query over an unknown job succeeded")
	}
}

// TestQueryLiveJob queries a job's store while the job is still running:
// the live-read path must answer with the sealed prefix instead of
// erroring on the growing tail.
func TestQueryLiveJob(t *testing.T) {
	dir := t.TempDir()
	s, client, ts := newTestServer(t, Config{Dir: dir})

	// An adopted-style in-progress campaign: create the job through the
	// real submission path, then query midway. To avoid timing flakes, use
	// a store written directly while a fake running job points at it.
	campaign := filepath.Join(dir, "live")
	w, err := store.Create(campaign, store.Options{SlotsPerFile: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // seals file 0, leaves file 1 unsealed
		seg := w.NewSegment(store.RunMeta{Experiment: "live", Sweep: i, End: sim.Time(i + 1)})
		seg.AddSummary(map[string]float64{"m": float64(i)})
		seg.AddSeries("s", []metrics.Point{{T: sim.Time(i), V: float64(i)}})
		if err := w.Append(seg); err != nil {
			t.Fatal(err)
		}
	}
	defer w.Close()

	j := &job{id: "job-live", storeDir: campaign, state: api.JobRunning, updated: make(chan struct{})}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.mu.Unlock()

	var rows int
	stats, err := client.QueryNDJSON(api.PathPrefix+"/jobs/job-live/summary",
		api.QueryValues(store.Query{Sweep: store.AnySweep}),
		func([]byte) error { rows++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Fatalf("live query served %d rows, want the 2 sealed runs", rows)
	}
	if stats.FilesInProgress != 1 {
		t.Fatalf("stats = %+v, want 1 file in progress", stats)
	}

	// The daemon-lifetime query counters surface on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"phantom_query_requests 1",
		fmt.Sprintf("phantom_query_blocks{result=\"scanned\"} %d", stats.BlocksScanned),
		fmt.Sprintf("phantom_query_bytes_read %d", stats.BytesRead),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("missing %q in /metrics:\n%s", want, body)
		}
	}
}

// TestQueryErrors pins the failure shapes: unknown job, bad parameters,
// storeless daemon.
func TestQueryErrors(t *testing.T) {
	_, client, _ := newTestServer(t, Config{}) // no Dir: storeless

	if _, err := client.QueryNDJSON(api.PathPrefix+"/jobs/nope/series", nil, nil); err == nil ||
		!strings.Contains(err.Error(), "no such job") {
		t.Errorf("unknown job error = %v", err)
	}

	st, err := client.Submit(quickSuite("^E01$"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Results(st.ID, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := client.QueryNDJSON(api.PathPrefix+"/jobs/"+st.ID+"/series", nil, nil); err == nil ||
		!strings.Contains(err.Error(), "no store") {
		t.Errorf("storeless job error = %v", err)
	}
	v := map[string][]string{"sweep": {"bogus"}}
	if _, err := client.QueryNDJSON(api.PathPrefix+"/jobs/"+st.ID+"/series", v, nil); err == nil ||
		!strings.Contains(err.Error(), "bad sweep") {
		t.Errorf("bad sweep error = %v", err)
	}
}
