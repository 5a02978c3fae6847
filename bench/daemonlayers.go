package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Per-layer metrics of the daemon workloads (the -trace run): spans around
// the client calls, the job's own lifecycle timestamps, and direct drives
// of the layers underneath — api.Expand, runner.Fleet, store.Writer,
// store.Reader — that the daemon calls internally.

// expandReps is how many direct api.Expand calls the api metrics are the
// median of.
const expandReps = 5

// livePoller is the second client connection of the -trace run: it polls
// the in-progress job's summary endpoint (the live-read path: sealed files
// answer while the writer appends) until told to stop.
type livePoller struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	ms     []float64
}

func startLivePoller(d *daemon, id string, rec *recorder, rep int) *livePoller {
	p := &livePoller{stopCh: make(chan struct{})}
	client := api.NewClient(d.ts.URL)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			select {
			case <-p.stopCh:
				return
			default:
			}
			sp := rec.begin(noSpan, "live: GET /jobs/{id}/summary", rep)
			t0 := time.Now()
			_, err := client.QueryNDJSON(api.PathPrefix+"/jobs/"+id+"/summary",
				api.QueryValues(store.Query{Sweep: store.AnySweep}), func([]byte) error { return nil })
			rec.end(sp)
			if err == nil {
				p.ms = append(p.ms, float64(time.Since(t0))/1e6)
			}
		}
	}()
	return p
}

// stop ends the poller, waits for its goroutine, and returns the latencies
// it saw.
func (p *livePoller) stop() []float64 {
	close(p.stopCh)
	p.wg.Wait()
	return p.ms
}

// finishedJobLayers measures what the daemon serves about a job that has
// already finished: the results stream with nothing to wait for, and
// /metrics.
func finishedJobLayers(b *bench, spec api.JobSpec) error {
	runtime.GC()
	d := startDaemon(filepath.Join(b.tmp, "data-finished"))
	defer d.stop()
	j, err := submitAndStream(b, d, spec, -1, nil, nil)
	if err != nil {
		return err
	}
	rows := 0
	replay := timed(func() {
		sp := b.rec.begin(noSpan, "api.Client.Results (replay)", 0)
		_, err = d.client.Results(j.status.ID, func(api.RunResult) { rows++ })
		b.rec.end(sp)
	})
	if err != nil {
		return fmt.Errorf("results replay: %w", err)
	}
	b.set("serve.results_replay_rows_per_s", float64(rows)/(replay/1e9), 1, "Results on a finished job")

	scrape, err := d.scrapeMillis(b, 20)
	if err != nil {
		return err
	}
	b.set("serve.metrics_scrape_ms", scrape, 20, "GET /metrics")
	return nil
}

func ingestLayers(b *bench, spec api.JobSpec, jobs []ingestJob, traced []bool, live []float64) error {
	runs := spec.Suite.Sweep
	var totals, queueMS, runPhase []float64
	for _, j := range jobs {
		totals = append(totals, float64(j.total))
		if st := j.status; st != nil {
			queueMS = append(queueMS, float64(st.StartedUnixMS-st.SubmittedUnixMS))
			if phase := st.FinishedUnixMS - st.StartedUnixMS; phase > 0 {
				runPhase = append(runPhase, float64(runs)/(float64(phase)/1e3))
			}
		}
	}
	on, off := splitByTraced(totals, traced)
	b.set("bench.trace_overhead_pct", overheadPct(on, off), len(on), "traced vs untraced job median; traced jobs also carry the live poller")
	b.set("serve.queue_wait_ms", median(queueMS), len(queueMS), "JobStatus started - submitted (ms resolution)")
	b.set("serve.run_phase_runs_per_s", median(runPhase), len(runPhase), "runs / (JobStatus finished - started)")
	b.set("serve.live_query_ms_p50", median(live), len(live), "second connection polling the running job's summary")

	if err := finishedJobLayers(b, spec); err != nil {
		return err
	}

	// api: expand the same spec under the Env the daemon passes.
	env := api.Env{Trace: true}
	var expandMS, expandMB []float64
	var expn *api.Expansion
	var err error
	for i := 0; i < expandReps; i++ {
		expn = nil
		runtime.GC() // drop the previous expansion: each Expand reuses its memory
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		el := timed(func() {
			sp := b.rec.begin(noSpan, "api.Expand", i)
			expn, err = api.Expand(spec, env)
			b.rec.end(sp)
		})
		if err != nil {
			return fmt.Errorf("expand: %w", err)
		}
		runtime.ReadMemStats(&after)
		expandMS = append(expandMS, el/1e6)
		expandMB = append(expandMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(len(expn.Jobs)))
	}
	b.set("api.expand_ms", median(expandMS), len(expandMS), "direct api.Expand of the ingest spec")
	b.set("api.expand_mb_per_run", median(expandMB), len(expandMB), "bytes allocated by Expand / runs")

	// runner: the same expansion on a bare fleet — no store, no daemon.
	fleet := &runner.Fleet{Workers: benchProcs, Telemetry: true}
	sp := b.rec.begin(noSpan, "runner.Fleet.Run", 0)
	results, stats := fleet.Run(expn.Jobs)
	b.rec.end(sp)
	dispatch := float64(stats.Wall) - float64(stats.WorkWall)/float64(stats.Workers)
	b.set("runner.dispatch_us_per_run", dispatch/1e3/float64(stats.Runs), 1, "(fleet wall - work wall / workers) / runs")
	b.set("runner.mallocs_per_run", stats.AllocsPerRun(), 1, "process mallocs across the fleet run / runs")

	convert := timed(func() {
		sp := b.rec.begin(noSpan, "api.Expansion.Convert", 0)
		for i, r := range results {
			rr := expn.Convert(i, r)
			ladderSink += rr.WallMS
		}
		b.rec.end(sp)
	})
	b.set("api.convert_us_per_run", convert/1e3/float64(len(results)), 1, "Expansion.Convert over the fleet's results")

	// telemetry: what one run's counter snapshot costs the fleet.
	def, ok := exp.Get("E01")
	if !ok {
		return fmt.Errorf("experiment E01 is not registered")
	}
	reg := telemetry.New()
	if _, err := exp.Execute(def, exp.Options{Quiet: true, Duration: sim.Millisecond, Telemetry: reg}, nil); err != nil {
		return fmt.Errorf("E01: %w", err)
	}
	b.set("telemetry.snapshot_us", snapshotMicros(b, reg), 200, "Registry.Snapshot of one E01 run's registry")

	// store, write side: the synthetic 10^4-run campaign through Writer.
	n := b.scaled(queryBigRuns, 50)
	sp = b.rec.begin(noSpan, "store.Writer: synthetic campaign", n)
	cw, err := writeCampaign(filepath.Join(b.tmp, "ladder-campaign"), n)
	b.rec.end(sp)
	if err != nil {
		return fmt.Errorf("store ladder: %w", err)
	}
	b.set("store.encode_us_per_run", float64(cw.encode)/1e3/float64(n), n, "NewSegment + Add*, synthetic campaign, flate")
	b.set("store.commit_us_per_run", float64(cw.commit)/1e3/float64(n), n, "Writer.Append, synthetic campaign")
	b.set("store.ingest_runs_per_s", float64(n)/cw.total.Seconds(), 1, "synthetic runs per second, Create to Close")
	return nil
}

// storePoint is the direct form of what the daemon's series handler does
// per request: open the campaign through the index cache, run the windowed
// query.
func storePoint(cache *store.Cache, dir string, live bool, target int) (rows int, err error) {
	open := cache.Open
	if live {
		open = cache.OpenLive
	}
	r, err := open(dir)
	if err != nil {
		return 0, err
	}
	err = r.Series(pointQuery(target), func(store.SeriesChunk) error { rows++; return nil })
	return rows, err
}

func queryLayers(b *bench, d *daemon, big int, targets []int, pointMS []float64, pointTraced []bool, scanMS []float64) error {
	on, off := splitByTraced(pointMS, pointTraced)
	b.set("bench.trace_overhead_pct", overheadPct(on, off), len(on), "traced vs untraced point-query median")
	if p, ok := supportablePercentile(len(pointMS)); ok {
		if p > 99 {
			p = 99
		}
		b.set("serve.query_point_ms_p99", percentile(pointMS, p), len(pointMS), fmt.Sprintf("p%g: the highest percentile <= 99 with ten samples beyond it", p))
	} else {
		b.set("serve.query_point_ms_p99", percentile(pointMS, 100), len(pointMS), "sample too small for a tail percentile: this is the maximum")
	}

	scrape, err := d.scrapeMillis(b, 20)
	if err != nil {
		return err
	}
	b.set("serve.metrics_scrape_ms", scrape, 20, "GET /metrics")

	// store, read side, on the same sealed campaign the daemon serves.
	dir := filepath.Join(d.dir, "job-00001")
	cache := store.NewCache()
	if _, err := cache.Open(dir); err != nil {
		return err
	}
	// loop times n calls of op one by one and returns their median in
	// microseconds.
	loop := func(name string, n int, op func(i int) error) (float64, error) {
		sp := b.rec.begin(noSpan, name, 0)
		defer b.rec.end(sp)
		var us []float64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := op(i); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(t0))/1e3)
		}
		return median(us), nil
	}

	openUS, err := loop("store.Open", 10, func(int) error { _, err := store.Open(dir); return err })
	if err != nil {
		return err
	}
	b.set("store.open_ms", openUS/1e3, 10, "store.Open of the 10^4-run campaign, no cache")

	cacheUS, err := loop("store.Cache.Open", 200, func(int) error { _, err := cache.Open(dir); return err })
	if err != nil {
		return err
	}
	b.set("store.cache_open_us", cacheUS, 200, "Cache.Open with every index memoized")

	pointUS, err := loop("store: point queries", 1000, func(i int) error {
		rows, err := storePoint(cache, dir, false, targets[i%big])
		if err == nil && rows != 1 {
			err = fmt.Errorf("direct point query returned %d rows", rows)
		}
		return err
	})
	if err != nil {
		return err
	}
	b.set("store.point_query_us", pointUS, 1000, "Cache.Open + windowed Reader.Series, as the handler does")
	b.set("serve.http_overhead_point_us", median(off)*1e3-pointUS, 0, "computed: HTTP point p50 - store.point_query_us")

	var scanStats store.ScanStats
	scanUS, err := loop("store: full scans", 10, func(int) error {
		r, err := cache.Open(dir)
		if err != nil {
			return err
		}
		rows := 0
		if err := r.Summaries(store.Query{Sweep: store.AnySweep}, func(store.RunSummary) error { rows++; return nil }); err != nil {
			return err
		}
		scanStats = r.Stats()
		if rows != big {
			return fmt.Errorf("direct scan returned %d rows, want %d", rows, big)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.set("store.scan_us_per_block", scanUS/float64(scanStats.BlocksScanned), 10, "full Reader.Summaries scan / blocks scanned")
	b.set("store.bytes_read_scan", float64(scanStats.BytesRead), 0, "compressed bytes one full summary scan fetches")
	if ndjson := median(scanMS)*1e3 - scanUS; ndjson > 0 {
		b.set("serve.ndjson_rows_per_s", float64(big)/(ndjson/1e6), 0, "computed: rows / (HTTP scan - store scan)")
	} else {
		b.set("serve.ndjson_rows_per_s", 0, 0, "computed: HTTP scan was not slower than the store scan")
	}

	// The one drive of this workload with two things running at once.
	prev := runtime.GOMAXPROCS(benchProcs)
	us, err := livePointQueries(b, filepath.Join(b.tmp, "live-campaign"))
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	b.set("store.live_point_query_us", us, b.scaled(500, 20), "Cache.OpenLive + point query while a Writer appends on the second thread")
	return nil
}

// livePointQueries measures the reader's side of a live campaign: one
// goroutine appends runs through a Writer for as long as the reader keeps
// re-opening the directory in live mode and querying a run from an
// already-sealed file.
func livePointQueries(b *bench, dir string) (float64, error) {
	sp := b.rec.begin(noSpan, "store: live point queries", 0)
	defer b.rec.end(sp)
	w, err := store.Create(dir, store.Options{})
	if err != nil {
		return 0, err
	}
	appendRun := func(i int) error {
		seg := w.NewSegment(store.RunMeta{Experiment: "sweep/acr", Sweep: i, End: sim.Time(1000*i + campaignPoints - 1)})
		pts := make([]metrics.Point, campaignPoints)
		for p := range pts {
			pts[p] = metrics.Point{T: sim.Time(1000*i + p), V: float64(i)}
		}
		seg.AddSeries("acr", pts)
		return w.Append(seg)
	}
	// Enough runs up front to seal the first file, so run 0 is queryable.
	sealed := store.DefaultSlotsPerFile + 1
	for i := 0; i < sealed; i++ {
		if err := appendRun(i); err != nil {
			return 0, err
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := sealed; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if writeErr = appendRun(i); writeErr != nil {
				return
			}
		}
	}()

	cache := store.NewCache()
	var us []float64
	var readErr error
	for i := 0; i < b.scaled(500, 20); i++ {
		t0 := time.Now()
		rows, err := storePoint(cache, dir, true, i%store.DefaultSlotsPerFile)
		us = append(us, float64(time.Since(t0))/1e3)
		if err != nil || rows != 1 {
			readErr = fmt.Errorf("live point query: %d rows, %v", rows, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := w.Close(); err != nil && writeErr == nil {
		writeErr = err
	}
	if readErr != nil {
		return 0, readErr
	}
	return median(us), writeErr
}
