package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/cli"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
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
			if err := cli.RunTraceQuery(&local, api.LocalSource{Reader: r}, tc.opts); err != nil {
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
			lst, rst := api.LocalSource{Reader: r}.Stats(), remoteSrc.Stats()
			if lst != rst {
				t.Errorf("scan stats differ: local %+v, remote %+v", lst, rst)
			}
		})
	}
}

// queryCase is one analytics request: a per-job endpoint (summary,
// counters, series) on job, or endpoint "query": the cross-job counters
// merge over the CSV of jobs.
type queryCase struct {
	job, endpoint string
	q             store.Query
}

func (tc queryCase) String() string { return fmt.Sprintf("%s /%s %+v", tc.job, tc.endpoint, tc.q) }

// want renders tc the reference way: a fresh store.Open of each campaign
// under root, its rows through json.Encoder, its stats as the trailer.
func (tc queryCase) want(root string) (body, trailer []byte, err error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var stats any
	if tc.endpoint == "query" {
		type key struct {
			exp   string
			sweep int
		}
		merged := map[key]*api.CountersRow{}
		var keys []key
		cross := api.QueryStats{}
		for _, id := range strings.Split(tc.job, ",") {
			r, err := store.Open(filepath.Join(root, id))
			if err != nil {
				return nil, nil, err
			}
			if err := r.Counters(tc.q, func(rc store.RunCounters) error {
				k := key{rc.Experiment, rc.Sweep}
				if merged[k] == nil {
					merged[k] = &api.CountersRow{Experiment: rc.Experiment, Sweep: rc.Sweep, Counters: map[string]uint64{}}
					keys = append(keys, k)
				}
				merged[k].Runs++
				telemetry.Merge(merged[k].Counters, rc.Map())
				return nil
			}); err != nil {
				return nil, nil, err
			}
			cross.Jobs++
			cross.Add(r.Stats())
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].exp != keys[b].exp {
				return keys[a].exp < keys[b].exp
			}
			return keys[a].sweep < keys[b].sweep
		})
		for _, k := range keys {
			enc.Encode(*merged[k])
		}
		stats = cross
	} else {
		r, err := store.Open(filepath.Join(root, tc.job))
		if err != nil {
			return nil, nil, err
		}
		switch tc.endpoint {
		case "summary":
			err = r.Summaries(tc.q, func(rs store.RunSummary) error {
				m := make(map[string]float64, len(rs.Names))
				for i, name := range rs.Names {
					m[name] = rs.Values[i]
				}
				return enc.Encode(api.SummaryRow{Experiment: rs.Experiment, Sweep: rs.Sweep, AtNS: int64(rs.At), Summary: m})
			})
		case "counters":
			err = r.Counters(tc.q, func(rc store.RunCounters) error {
				return enc.Encode(api.CountersRow{Experiment: rc.Experiment, Sweep: rc.Sweep, AtNS: int64(rc.At), Counters: rc.Map()})
			})
		case "series":
			err = r.Series(tc.q, func(c store.SeriesChunk) error {
				return enc.Encode(api.SeriesRow{Experiment: c.Experiment, Sweep: c.Sweep, Name: c.Name, Points: c.Points})
			})
		}
		if err != nil {
			return nil, nil, err
		}
		stats = api.QueryStats{ScanStats: r.Stats()}
	}
	if buf.Len() == 0 {
		return nil, nil, fmt.Errorf("%s: no rows, so the comparison proves nothing", tc)
	}
	trailer, _ = json.Marshal(stats)
	return buf.Bytes(), trailer, nil
}

// get fetches tc from the daemon at base: status, raw body, trailer.
func (tc queryCase) get(base string) (status int, body []byte, trailer string, err error) {
	u := base + api.PathPrefix + "/jobs/" + tc.job + "/" + tc.endpoint + "?" + api.QueryValues(tc.q).Encode()
	if tc.endpoint == "query" {
		v := api.QueryValues(tc.q)
		v.Set("kind", "counters")
		v.Set("jobs", tc.job)
		u = base + api.PathPrefix + "/query?" + v.Encode()
	}
	resp, err := http.Get(u)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Trailer.Get(api.TrailerScanStats), err
}

// check fetches tc and compares it with the reference rendering.
func (tc queryCase) check(base string, body, trailer []byte) error {
	_, got, gotTrailer, err := tc.get(base)
	switch {
	case err != nil:
		return fmt.Errorf("%s: %v", tc, err)
	case !bytes.Equal(got, body):
		return fmt.Errorf("%s: body differs from json.Encoder's rendering\n got %.300q\nwant %.300q", tc, got, body)
	case gotTrailer != string(trailer):
		return fmt.Errorf("%s: trailer %s, local reader %s", tc, gotTrailer, trailer)
	}
	return nil
}

// bodiesFixture is a data root holding an adopted campaign carrying
// series ("synth") and a daemon-run E01/E02 sweep with telemetry and
// traces, whose summary blocks sit between trace blocks; it returns the
// root, the daemon's URL and the run job's ID.
func bodiesFixture(t *testing.T) (root, base, runID string) {
	root = t.TempDir()
	writeSyntheticCampaign(t, filepath.Join(root, "synth"), 300)
	_, client, ts := newTestServer(t, Config{Dir: root})
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
	return root, ts.URL, st.ID
}

// bodiesCases are the requests whose bodies and trailers must match the
// reference rendering.
func bodiesCases(runID string) []queryCase {
	all := store.Query{Sweep: store.AnySweep}
	return []queryCase{
		{runID, "summary", all},
		{runID, "counters", all},
		{"synth", "summary", all},
		{"synth", "counters", all},
		{"synth", "series", store.Query{Name: "acr", Sweep: store.AnySweep}},
		{"synth", "series", store.Query{Name: "acr", Sweep: store.AnySweep, From: 40_010_000, To: 120_020_000}},
	}
}

// TestQueryBodiesMatchEncoder: the raw bodies of the row endpoints — the
// summary rows the daemon writes without reflection among them — are the
// bytes json.Encoder renders from the local reader's rows, and their
// trailers carry the local reader's stats. The data is a daemon-run
// E01/E02 sweep with telemetry and traces, whose summary blocks sit
// between trace blocks, and an adopted campaign carrying series.
func TestQueryBodiesMatchEncoder(t *testing.T) {
	root, base, runID := bodiesFixture(t)
	for _, tc := range bodiesCases(runID) {
		body, trailer, err := tc.want(root)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.check(base, body, trailer); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentQueriesMatchEncoder: eight goroutines querying one
// daemon-run job (its first queries racing to open it) and one adopted
// job at once — windowed series, summaries, counters and cross-job
// merges — each get exactly the reference body and trailer. Run under
// -race, it checks that clones of a kept campaign reader share nothing
// mutable.
func TestConcurrentQueriesMatchEncoder(t *testing.T) {
	root, base, runID := bodiesFixture(t)
	cases := append(bodiesCases(runID),
		queryCase{"synth", "series", store.Query{Name: "acr", Sweep: store.AnySweep, From: 7_000_000, To: 7_031_000}},
		queryCase{runID + ",synth", "query", store.Query{Sweep: store.AnySweep}},
	)
	bodies, trailers := make([][]byte, len(cases)), make([][]byte, len(cases))
	for i, tc := range cases {
		var err error
		if bodies[i], trailers[i], err = tc.want(root); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(cases); k++ {
				i := (g + k) % len(cases)
				if err := cases[i].check(base, bodies[i], trailers[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
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

// TestAdoptRejectsUnsealed: adoption opens every campaign strictly. A
// truncated file or one a writer never sealed makes its campaign a failed
// adopted job carrying the open error, which its queries answer with 409;
// the good campaign next to them is done and served, and a cross-job
// query over every job passes the failed ones by.
func TestAdoptRejectsUnsealed(t *testing.T) {
	dir := t.TempDir()
	writeSyntheticCampaign(t, filepath.Join(dir, "good"), 20)
	writeSyntheticCampaign(t, filepath.Join(dir, "truncated"), 20)
	if err := os.Truncate(filepath.Join(dir, "truncated", "phantomdb-00001.pdb"), 100); err != nil {
		t.Fatal(err)
	}
	w, err := store.Create(filepath.Join(dir, "unsealed"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seg := w.NewSegment(store.RunMeta{Experiment: "u", End: 1})
	seg.AddSummary(map[string]float64{"m": 1})
	if err := w.Append(seg); err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	_, client, ts := newTestServer(t, Config{Dir: dir})
	jobs, err := client.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]api.JobStatus{}
	for _, j := range jobs {
		byID[j.ID] = j
	}
	if j := byID["good"]; !j.Adopted || j.State != api.JobDone || j.Error != "" {
		t.Errorf("good campaign: %+v, want adopted and done", j)
	}
	for _, id := range []string{"truncated", "unsealed"} {
		_, err := store.Open(filepath.Join(dir, id))
		if err == nil {
			t.Fatalf("%s campaign opens", id)
		}
		reason := err.Error()
		j := byID[id]
		if !j.Adopted || j.State != api.JobFailed || j.Error != reason {
			t.Errorf("%s campaign: %+v, want adopted and failed with %q", id, j, reason)
		}
		for _, endpoint := range []string{"summary", "series"} {
			status, body, _, err := queryCase{id, endpoint, store.Query{Sweep: store.AnySweep}}.get(ts.URL)
			var e api.Error
			if err != nil || status != http.StatusConflict || json.Unmarshal(body, &e) != nil || e.Message != reason {
				t.Errorf("%s /%s: %d %s (%v), want 409 naming %q", id, endpoint, status, body, err, reason)
			}
		}
	}

	var rows int
	if _, err := client.QueryNDJSON(api.PathPrefix+"/jobs/good/summary",
		api.QueryValues(store.Query{Sweep: store.AnySweep}),
		func([]byte) error { rows++; return nil }); err != nil || rows != 20 {
		t.Fatalf("good campaign served %d summaries (%v), want 20", rows, err)
	}
	ignore := func(api.AggregateRow) error { return nil }
	stats, err := client.CrossSummaries(nil, store.Query{Sweep: store.AnySweep}, ignore)
	if err != nil || stats.Jobs != 1 {
		t.Fatalf("cross query over every job: %+v, %v; want the good job alone", stats, err)
	}
	if _, err := client.CrossSummaries([]string{"good", "unsealed"}, store.Query{Sweep: store.AnySweep}, ignore); err == nil ||
		!strings.Contains(err.Error(), byID["unsealed"].Error) {
		t.Fatalf("cross query naming the unsealed job: %v, want its open error", err)
	}
}

// metric reads one sample's value from the daemon's /metrics.
func metric(t *testing.T, base, name string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		var v int
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if _, err := fmt.Sscan(rest, &v); err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("no %s in /metrics:\n%s", name, body)
	return 0
}

// TestSealedCampaignTamper: a terminal job's campaign is opened once, so
// no later query stats its files — yet damage done after the open is
// still loud. Each query that reads a truncated, flipped or deleted block
// fails (a 5xx, or the mid-stream error line after rows that match the
// undamaged answer) and counts in phantom_query_errors; a query whose
// zones skip the damaged file answers exactly as before.
func TestSealedCampaignTamper(t *testing.T) {
	// 20 runs of 4 blocks in 64-slot files: file 0 holds runs 0-15, and
	// its first block, right after the 64-slot index, is run 0's series.
	const firstBlock = 64 + 64*64
	for _, damage := range []struct {
		name string
		do   func(path string) error
	}{
		{"truncate", func(path string) error { return os.Truncate(path, firstBlock+1) }},
		{"flip", func(path string) error {
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			b := make([]byte, 1)
			if _, err := f.ReadAt(b, firstBlock); err != nil {
				return err
			}
			b[0] ^= 0x40
			_, err = f.WriteAt(b, firstBlock)
			return err
		}},
		{"delete", os.Remove},
	} {
		t.Run(damage.name, func(t *testing.T) {
			dir := t.TempDir()
			writeSyntheticCampaign(t, filepath.Join(dir, "job-00001"), 20)
			_, _, ts := newTestServer(t, Config{Dir: dir})
			series := func(from, to sim.Time) queryCase {
				return queryCase{"job-00001", "series", store.Query{Name: "acr", Sweep: store.AnySweep, From: from, To: to}}
			}
			run0, run19, all := series(0, 31_000), series(19_000_000, 19_031_000), series(0, 0)
			cases := []queryCase{run0, run19, all,
				{"job-00001", "summary", store.Query{Sweep: store.AnySweep}},
				{"job-00001", "query", store.Query{Sweep: store.AnySweep}},
			}
			before := make([][]byte, len(cases))
			trailers := make([]string, len(cases))
			for i, tc := range cases {
				var status int
				var err error
				if status, before[i], trailers[i], err = tc.get(ts.URL); err != nil || status != http.StatusOK {
					t.Fatalf("%s before the damage: %d, %v", tc, status, err)
				}
			}
			if err := damage.do(filepath.Join(dir, "job-00001", "phantomdb-00000.pdb")); err != nil {
				t.Fatal(err)
			}
			errs0 := metric(t, ts.URL, "phantom_query_errors")
			failed := map[queryCase]bool{}
			for i, tc := range cases {
				status, body, trailer, err := tc.get(ts.URL)
				if err != nil {
					t.Fatal(err)
				}
				if status == http.StatusOK && bytes.Equal(body, before[i]) && trailer == trailers[i] {
					continue
				}
				failed[tc] = true
				if status >= 400 {
					continue
				}
				rows, last := body[:0], body
				if k := bytes.LastIndexByte(body[:len(body)-1], '\n'); k >= 0 {
					rows, last = body[:k+1], body[k+1:]
				}
				var e api.Error
				if json.Unmarshal(last, &e) != nil || e.Message == "" || trailer != "" || !bytes.HasPrefix(before[i], rows) {
					t.Errorf("%s after the damage: neither the undamaged answer nor an error\n got %.300q\nwant %.300q", tc, body, before[i])
				}
			}
			if !failed[run0] || !failed[all] {
				t.Errorf("queries reading the damaged block did not fail: %v", failed)
			}
			if failed[run19] {
				t.Error("a query whose zones skip the damaged file failed")
			}
			if got := metric(t, ts.URL, "phantom_query_errors") - errs0; got != len(failed) {
				t.Errorf("phantom_query_errors rose by %d, want %d", got, len(failed))
			}
		})
	}
}

// TestCampaignOpensCounted: phantom_query_campaign_opens counts the query
// plane's directory listings — one per terminal job however often it is
// queried (an adopted one at startup, a finished one at its first query),
// one per request on a running job.
func TestCampaignOpensCounted(t *testing.T) {
	dir := t.TempDir()
	writeSyntheticCampaign(t, filepath.Join(dir, "adopted"), 3)
	s, _, ts := newTestServer(t, Config{Dir: dir})
	other := t.TempDir()
	writeSyntheticCampaign(t, filepath.Join(other, "done"), 3)
	w, err := store.Create(filepath.Join(other, "live"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s.mu.Lock()
	for id, state := range map[string]api.JobState{"done": api.JobDone, "live": api.JobRunning} {
		j := &job{id: id, storeDir: filepath.Join(other, id), state: state, updated: make(chan struct{})}
		s.jobs[id] = j
		s.order = append(s.order, j)
	}
	s.mu.Unlock()

	opens := func(mode string) int {
		return metric(t, ts.URL, fmt.Sprintf("phantom_query_campaign_opens{mode=%q}", mode))
	}
	if got := opens("sealed"); got != 1 {
		t.Fatalf("sealed opens after adoption = %d, want 1", got)
	}
	for i := 0; i < 100; i++ {
		for _, id := range []string{"adopted", "done"} {
			if status, _, _, err := (queryCase{id, "summary", store.Query{Sweep: store.AnySweep}}).get(ts.URL); err != nil || status != http.StatusOK {
				t.Fatalf("%s query %d: %d, %v", id, i, status, err)
			}
		}
	}
	if got := opens("sealed"); got != 2 {
		t.Errorf("sealed opens after 100 queries on each terminal job = %d, want 2", got)
	}
	for i := 0; i < 5; i++ {
		if status, _, _, err := (queryCase{"live", "summary", store.Query{Sweep: store.AnySweep}}).get(ts.URL); err != nil || status != http.StatusOK {
			t.Fatalf("live query %d: %d, %v", i, status, err)
		}
	}
	if got := opens("live"); got != 5 {
		t.Errorf("live opens after 5 queries = %d, want 5", got)
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
