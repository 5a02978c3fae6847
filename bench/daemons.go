package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/api"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
)

// The two daemon workloads drive an in-process serve.Server behind a
// loopback httptest listener through api.Client — the same code path as
// phantom-suite -submit and phantom-trace -remote. Both are closed loops:
// one client connection issues the next request when the previous reply
// has been read to its end (-trace adds a second connection that polls).
// Traffic crosses the host's loopback interface, never a real link.

const (
	// ingestRuns is one ingest job's size. The daemon today holds ~1.1 MB
	// per expanded run for the job's lifetime (an eager trace.New per run
	// in api.Expand, retained by the job table): 250 runs is ~275 MB. Job
	// times scatter with the state of that memory, so the medians want many
	// jobs per run: 250-run jobs give ~150 of them in 20 s.
	ingestRuns = 250
	// The query workload's data root: one large campaign and three small
	// ones, in the shape bench_store_test.go uses (per run: one 64-point
	// series, a summary, a counter snapshot).
	queryBigRuns    = 10_000
	querySmallRuns  = 1_000
	querySmallCount = 3
	campaignPoints  = 64
	// One round of the query workload is queryPointsPerRound point queries
	// (~30 ms), one full scan (~23 ms) and, every queryCrossEvery-th round,
	// one cross-job aggregate (~95 ms). Rounds repeat until the run's time
	// is up (~260 in 20 s), and at least queryMinRounds times.
	queryPointsPerRound = 100
	queryCrossEvery     = 4
	queryMinRounds      = 20
	// querySetups is how many times the data root is seeded and adopted by
	// a fresh daemon for setup_s; ingestSetups how many times a daemon is
	// brought up to its first answered request.
	querySetups  = 5
	ingestSetups = 20
)

// daemon is an in-process phantom-serve with its loopback listener.
type daemon struct {
	dir    string
	srv    *serve.Server
	ts     *httptest.Server
	client *api.Client
}

func startDaemon(dir string) *daemon {
	s := serve.New(serve.Config{Dir: dir, FleetWorkers: benchProcs})
	ts := httptest.NewServer(s.Handler())
	return &daemon{dir: dir, srv: s, ts: ts, client: api.NewClient(ts.URL)}
}

// stop drains the daemon (sealing its stores) and closes the listener,
// which waits for every connection's goroutine to end.
func (d *daemon) stop() {
	d.srv.Drain()
	d.ts.Close()
}

// scrapeMillis times GET /metrics.
func (d *daemon) scrapeMillis(b *bench, n int) (float64, error) {
	sp := b.rec.begin(noSpan, "GET /metrics", 0)
	defer b.rec.end(sp)
	var ms []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := http.Get(d.ts.URL + "/metrics")
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("/metrics: status %d", resp.StatusCode)
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

// campaignWrite is the cost breakdown of writing one synthetic campaign.
type campaignWrite struct {
	encode, commit, total time.Duration
	bytes                 int64
}

// writeCampaign ingests a synthetic parameter sweep through store.Writer:
// per run one 64-point series, a summary and a counter snapshot. Run i's
// series occupies the time range [1000·i, 1000·i+63], so a windowed query
// selects exactly one run.
func writeCampaign(dir string, runs int) (campaignWrite, error) {
	var cw campaignWrite
	start := time.Now()
	w, err := store.Create(dir, store.Options{})
	if err != nil {
		return cw, err
	}
	pts := make([]metrics.Point, campaignPoints)
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		seg := w.NewSegment(store.RunMeta{Experiment: "sweep/acr", Sweep: i, End: sim.Time(1000*i + campaignPoints - 1)})
		for p := range pts {
			pts[p] = metrics.Point{T: sim.Time(1000*i + p), V: float64(i) + float64(p)/campaignPoints}
		}
		seg.AddSeries("acr", pts)
		seg.AddSummary(map[string]float64{"goodput": float64(i), "jain_normalized": 0.99})
		seg.AddCounters(map[string]uint64{"link.cells_in": uint64(i * 64), "link.cells_out": uint64(i * 63)})
		t1 := time.Now()
		if err := w.Append(seg); err != nil {
			return cw, err
		}
		cw.encode += t1.Sub(t0)
		cw.commit += time.Since(t1)
	}
	if err := w.Close(); err != nil {
		return cw, err
	}
	cw.total = time.Since(start)
	cw.bytes, err = dirSize(dir)
	return cw, err
}

// dirSize returns the total size of the files in dir.
func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var size int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		size += info.Size()
	}
	return size, nil
}

// dirDigest returns the total size of the files in dir and a SHA-256 over
// their names and contents in name order (the order os.ReadDir returns).
func dirDigest(dir string) (int64, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, "", err
	}
	h := sha256.New()
	var size int64
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, "", err
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(data))
		h.Write(data)
		size += int64(len(data))
	}
	return size, hex.EncodeToString(h.Sum(nil)), nil
}

// ingestJob is one job's timings and what it left behind.
type ingestJob struct {
	ack, first, total time.Duration
	status            *api.JobStatus
	// live is the -trace run's second connection: the latencies (ms) it saw
	// polling this job while it ran.
	live []float64
	// size and digest are of the job's sealed campaign directory.
	size   int64
	digest string
}

func ingestSpec(runs int, seed uint64) api.JobSpec {
	return api.JobSpec{
		SchemaVersion: api.SchemaVersion,
		Kind:          api.KindSuite,
		Telemetry:     true,
		Tag:           fmt.Sprintf("bench-seed-%d", seed),
		Suite:         &api.SuiteSpec{Filter: "^E01$", DurationNS: int64(sim.Millisecond), Sweep: runs},
	}
}

// submitAndStream runs one job through the daemon: Submit, then Results
// streamed to the end. onSubmitted, if set, is told the job ID the moment
// the submission is acknowledged.
func submitAndStream(b *bench, d *daemon, spec api.JobSpec, rep int, rec *recorder, onSubmitted func(id string)) (ingestJob, error) {
	var j ingestJob
	root := rec.begin(noSpan, "job", rep)
	defer rec.end(root)

	sp := rec.begin(root, "api.Client.Submit", rep)
	start := time.Now()
	st, err := d.client.Submit(spec)
	j.ack = time.Since(start)
	rec.end(sp)
	if err != nil {
		return j, fmt.Errorf("submit: %w", err)
	}
	if onSubmitted != nil {
		onSubmitted(st.ID)
	}

	sp = rec.begin(root, "api.Client.Results", rep)
	streamStart := time.Now()
	var firstAt time.Time
	rows, bad := 0, 0
	report, err := d.client.Results(st.ID, func(r api.RunResult) {
		if rows == 0 {
			firstAt = time.Now()
		}
		rows++
		if r.Error != "" || r.Canceled {
			bad++
		}
	})
	end := time.Now()
	rec.end(sp)
	if err != nil {
		return j, fmt.Errorf("results: %w", err)
	}
	rec.mark(sp, "results: until first line", rep, streamStart, firstAt)
	rec.mark(sp, "results: first line to report", rep, firstAt, end)
	j.first = firstAt.Sub(start)
	j.total = end.Sub(start)
	j.status = report.Job

	// Every run is an operation; a missing or failed run is a failed one.
	want := spec.Suite.Sweep
	b.attempted += want
	for i := 0; i < want-rows+bad; i++ {
		b.fail("job %s: %d results, %d with errors, want %d clean", st.ID, rows, bad, want)
	}
	if report.Job == nil || report.Job.State != api.JobDone {
		b.fail("job %s did not finish done: %+v", st.ID, report.Job)
	}
	return j, nil
}

// checkJobStore reopens a finished job's campaign the strict way (sealed
// files only) and counts its summary rows.
func checkJobStore(b *bench, dir string, runs int) (int64, string) {
	b.op()
	r, err := store.Open(dir)
	if err != nil {
		b.fail("store.Open(%s): %v", dir, err)
		return 0, ""
	}
	rows := 0
	if err := r.Summaries(store.Query{Sweep: store.AnySweep}, func(store.RunSummary) error { rows++; return nil }); err != nil {
		b.fail("summaries of %s: %v", dir, err)
	}
	if rows != runs {
		b.fail("%s reopens to %d summary rows, want %d", dir, rows, runs)
	}
	size, digest, err := dirDigest(dir)
	if err != nil {
		b.fail("digest of %s: %v", dir, err)
	}
	return size, digest
}

// ingestOne is one unit of the ingest workload: bring a daemon up on an
// empty data root, run one job through it (timed: the op), check what it
// left on disk, drain it. The daemon's job table keeps every expansion
// alive, so a daemon per job — collected before the next one starts — is
// what keeps the process's memory, and with it the cost of the next job's
// page faults and collections, the same for every job.
func ingestOne(b *bench, root string, spec api.JobSpec, rep int, rec *recorder) (job ingestJob, err error) {
	runtime.GC() // every job starts from the same collector state, like every sim rep
	d := startDaemon(root)
	defer d.stop()

	var poller *livePoller
	var onSubmitted func(string)
	if rec != nil {
		onSubmitted = func(id string) { poller = startLivePoller(d, id, rec, rep) }
	}
	job, err = submitAndStream(b, d, spec, rep, rec, onSubmitted)
	if poller != nil {
		job.live = poller.stop()
	}
	if err != nil {
		return job, err
	}
	job.size, job.digest = checkJobStore(b, filepath.Join(root, job.status.ID), spec.Suite.Sweep)
	return job, nil
}

// ingestSetup is the ingest workload's set-up, repeated for a median: from
// nothing to a daemon that has answered its first request — serve.New, the
// loopback listener, the first connection, and a one-run job through
// expand, fleet, store and stream.
func ingestSetup(b *bench, seed uint64) (float64, error) {
	var secs []float64
	for i := 0; i < ingestSetups; i++ {
		root := filepath.Join(b.tmp, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		d := startDaemon(root)
		_, err := submitAndStream(b, d, ingestSpec(1, seed), 0, nil, nil)
		secs = append(secs, time.Since(t0).Seconds())
		d.stop()
		if err == nil {
			err = os.RemoveAll(root)
		}
		if err != nil {
			return 0, err
		}
	}
	return median(secs), nil
}

func runIngest(b *bench) error {
	runs := b.scaled(ingestRuns, 5)
	spec := ingestSpec(runs, b.seed)

	// Job 0 is the warm-up: it pays the one-time costs (experiment
	// registry, first heap growth, first touch of the memory every later
	// job reuses) and is not measured.
	warm, err := ingestOne(b, filepath.Join(b.tmp, "data-0"), spec, 0, nil)
	if err != nil {
		return err
	}
	setup, err := ingestSetup(b, b.seed)
	if err != nil {
		return err
	}
	b.set(mSetup, setup, ingestSetups, "daemon start to its first answered one-run job")

	budget := time.Duration(b.seconds * float64(time.Second))
	if b.tracing() {
		budget /= 2 // the other half of the run drives the layers directly
	}
	var measured []ingestJob
	var traced []bool
	var live []float64
	start := time.Now()
	for i := 1; len(measured) < minReps || time.Since(start) < budget; i++ {
		rec := b.rec
		if i%2 == 0 {
			rec = nil
		}
		root := filepath.Join(b.tmp, fmt.Sprintf("data-%d", i))
		j, err := ingestOne(b, root, spec, i, rec)
		if err != nil {
			return err
		}
		// Same spec, same derived seeds: every job's campaign must be
		// byte-identical on disk to the first one's.
		if j.digest != warm.digest {
			b.fail("job %d differs on disk from job 0 (%s vs %s)", i, j.digest, warm.digest)
		}
		if err := os.RemoveAll(root); err != nil {
			return err
		}
		measured = append(measured, j)
		traced = append(traced, rec != nil)
		live = append(live, j.live...)
	}
	b.counts["runs_per_job"] = int64(runs)
	b.counts["store_bytes_per_job"] = warm.size

	var perS, firstMS, ackMS []float64
	for _, j := range measured {
		perS = append(perS, float64(runs)/j.total.Seconds())
		firstMS = append(firstMS, float64(j.first)/1e6)
		ackMS = append(ackMS, float64(j.ack)/1e6)
	}
	b.set(mWork, median(perS), len(perS), "runs per second, submit to end of the results stream")
	b.set(mOpMS, median(firstMS), len(firstMS), "submit to first NDJSON result line")
	if !b.tracing() {
		return nil
	}
	b.set("serve.submit_ack_ms", median(ackMS), len(ackMS), "POST /v1/jobs to 2xx")
	b.set("store.bytes_per_run", float64(warm.size)/float64(runs), 0, "sealed job campaign bytes / runs")
	return ingestLayers(b, spec, measured, traced, live)
}

// querySeed writes the query workload's data root: job-00001 is the large
// campaign, job-00002.. the small ones.
func querySeed(root string, big, small int) (campaignWrite, error) {
	first, err := writeCampaign(filepath.Join(root, "job-00001"), big)
	if err != nil {
		return first, err
	}
	for i := 0; i < querySmallCount; i++ {
		if _, err := writeCampaign(filepath.Join(root, fmt.Sprintf("job-%05d", i+2)), small); err != nil {
			return first, err
		}
	}
	return first, nil
}

// pointQuery is the one-run windowed series query for run target.
func pointQuery(target int) store.Query {
	return store.Query{
		Name:  "acr",
		Sweep: store.AnySweep,
		From:  sim.Time(1000 * target),
		To:    sim.Time(1000*target + campaignPoints - 1),
	}
}

func runQuery(b *bench) error {
	big, small := b.scaled(queryBigRuns, 50), b.scaled(querySmallRuns, 10)
	b.counts["point_rows"] = 1
	b.counts["point_blocks_scanned"] = 1
	b.counts["point_blocks_skipped"] = int64(big - 1)
	b.counts["scan_rows"] = int64(big)

	// Set-up: seed the data root through store.Writer and let a fresh
	// daemon adopt it. Repeated on throwaway roots; the last one stays.
	var setups []float64
	var d *daemon
	var seeded campaignWrite
	for i := 0; i < querySetups; i++ {
		root := filepath.Join(b.tmp, fmt.Sprintf("data-%d", i))
		var cw campaignWrite
		var err error
		ns := timed(func() {
			sp := b.rec.begin(noSpan, "setup: seed + adopt", i)
			if cw, err = querySeed(root, big, small); err == nil {
				d = startDaemon(root)
			}
			b.rec.end(sp)
		})
		if err != nil {
			return err
		}
		setups = append(setups, ns/1e9)
		seeded = cw
		if i < querySetups-1 {
			d.stop()
			if err := os.RemoveAll(root); err != nil {
				return err
			}
		}
	}
	defer d.stop()
	b.set(mSetup, median(setups), len(setups), "seed 4 campaigns through store.Writer + daemon adoption")
	b.counts["big_campaign_bytes"] = seeded.bytes
	fmt.Printf("working set: %.1f MB of sealed campaign files, read through the OS page cache by design\n",
		float64(seeded.bytes)*(1+float64(querySmallCount*small)/float64(big))/1e6)

	bigPath := api.PathPrefix + "/jobs/job-00001"
	rng := rand.New(rand.NewSource(int64(b.seed)))
	targets := rng.Perm(big)

	// Warm-up: open the connection, fill the daemon's index cache.
	for i := 0; i < 20; i++ {
		if _, err := d.client.QueryNDJSON(bigPath+"/series", api.QueryValues(pointQuery(targets[i%big])), func([]byte) error { return nil }); err != nil {
			return err
		}
	}

	// The measured part runs in rounds — a batch of point queries, one full
	// scan and, every few rounds, one cross-job aggregate — until the time
	// is up, so every median is taken over the whole run: the host's speed
	// wanders over seconds, and a metric measured in one short stretch of
	// the run would read that stretch's speed.
	budget := time.Duration(b.seconds * float64(time.Second))
	if b.tracing() {
		budget /= 2 // the other half of the run drives the layers directly
	}
	minRounds := b.scaled(queryMinRounds, 2)
	var pointMS, scanRowsPerS, scanMS, crossMS []float64
	var pointTraced []bool
	crossRows := 0
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < budget; round++ {
		for k := 0; k < queryPointsPerRound; k++ {
			i := len(pointMS)
			rec := b.rec
			if i%2 == 0 {
				rec = nil
			}
			sp := rec.begin(noSpan, "GET /jobs/{id}/series", i)
			t0 := time.Now()
			rows := 0
			st, err := d.client.QueryNDJSON(bigPath+"/series", api.QueryValues(pointQuery(targets[i%big])), func([]byte) error { rows++; return nil })
			pointMS = append(pointMS, float64(time.Since(t0))/1e6)
			pointTraced = append(pointTraced, rec != nil)
			rec.end(sp)
			b.op()
			// QueryNDJSON fails without the Phantom-Scan-Stats trailer, so a
			// returned st is the trailer's content.
			if err != nil {
				b.fail("point query %d: %v", i, err)
			} else if rows != 1 || st.BlocksScanned != 1 || st.BlocksSkipped != big-1 {
				b.fail("point query %d: %d rows, %d blocks scanned, %d skipped; want 1, 1, %d", i, rows, st.BlocksScanned, st.BlocksSkipped, big-1)
			}
		}

		rows := 0
		var err error
		el := timed(func() {
			sp := b.rec.begin(noSpan, "GET /jobs/{id}/summary", round)
			_, err = d.client.QueryNDJSON(bigPath+"/summary", api.QueryValues(store.Query{Sweep: store.AnySweep}), func([]byte) error { rows++; return nil })
			b.rec.end(sp)
		})
		b.op()
		if err != nil {
			b.fail("scan %d: %v", round, err)
		} else if rows != big {
			b.fail("scan %d returned %d rows, want %d", round, rows, big)
		} else {
			scanRowsPerS = append(scanRowsPerS, float64(rows)/(el/1e9))
			scanMS = append(scanMS, el/1e6)
		}

		if round%queryCrossEvery != 0 {
			continue
		}
		rows = 0
		crossMS = append(crossMS, timed(func() {
			sp := b.rec.begin(noSpan, "GET /query?kind=summary", round)
			_, err = d.client.CrossSummaries(nil, store.Query{Sweep: store.AnySweep}, func(api.AggregateRow) error { rows++; return nil })
			b.rec.end(sp)
		})/1e6)
		b.op()
		// One aggregate row per (experiment, sweep, metric): the big
		// campaign's sweeps cover the small ones', two metrics each.
		if err != nil {
			b.fail("cross-job aggregate %d: %v", round, err)
		} else if rows != 2*big {
			b.fail("cross-job aggregate %d returned %d rows, want %d", round, rows, 2*big)
		}
		crossRows = rows
	}
	b.counts["cross_rows"] = int64(crossRows)

	b.set(mWork, median(scanRowsPerS), len(scanRowsPerS), "rows per second of the full summary stream")
	b.set(mOpMS, median(pointMS), len(pointMS), "one-run windowed series query over HTTP")
	if !b.tracing() {
		return nil
	}
	b.set("store.bytes_per_run", float64(seeded.bytes)/float64(big), 0, "sealed synthetic campaign bytes / runs")
	b.set("serve.query_cross_ms_p50", median(crossMS), len(crossMS), "4-campaign cross-job summary aggregate")
	return queryLayers(b, d, big, targets, pointMS, pointTraced, scanMS)
}
