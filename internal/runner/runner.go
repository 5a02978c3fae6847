// Package runner executes experiment suites as a fleet: a bounded worker
// pool that runs one sim.Engine per goroutine, so a multi-core machine
// regenerates the paper's tables and figures in the wall-clock time of the
// slowest experiment instead of the sum of all of them.
//
// The design leans on two properties of the layers below:
//
//   - Engines are share-nothing. internal/sim documents (and partially
//     enforces) the one-engine-per-goroutine contract, so experiments
//     compose under parallelism with no locking at all.
//   - Experiments are deterministic. A Definition plus Options fully
//     specifies a run, and each job's seed is derived from (ID, sweep
//     index) alone — see DeriveSeed — so the fleet's results are
//     bit-identical to a sequential run no matter the worker count or
//     completion order.
//
// A panicking experiment is captured per job and reported as a failed
// Result; it never takes down the fleet or the process.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Job is one unit of fleet work: an experiment definition plus the options
// to run it under. Sweep expansions of a single definition share the ID and
// differ in SweepIndex (and whatever Opts the expansion varied).
type Job struct {
	Def exp.Definition
	// Opts are the run options. Opts.Seed is overwritten by the fleet with
	// DeriveSeed(Def.ID, SweepIndex) unless PinSeed is set.
	Opts exp.Options
	// SweepIndex distinguishes points of a parameter sweep; plain suite
	// runs leave it zero.
	SweepIndex int
	// Name labels the job in reports; empty means Def.ID (plus the sweep
	// index when non-zero).
	Name string
	// PinSeed keeps Opts.Seed as given instead of deriving it. Tests use
	// it to replay a specific seed.
	PinSeed bool
	// TraceCap, when positive, asks the fleet to record the run on a flight
	// recorder of that capacity. The job states the intent only: the
	// storage is the executing worker's (see Fleet.OnTrace for who gets to
	// read it, and when). A job that brings its own Opts.Trace is recorded
	// there instead and TraceCap is ignored.
	TraceCap int
}

// Label returns the job's display name.
func (j Job) Label() string {
	if j.Name != "" {
		return j.Name
	}
	if j.SweepIndex != 0 {
		return fmt.Sprintf("%s#%d", j.Def.ID, j.SweepIndex)
	}
	return j.Def.ID
}

// Result is the outcome of one job. Exactly one of Res or Err is set; a
// captured panic additionally carries its stack.
type Result struct {
	// Job is the job as submitted. A recorder the worker lent to the run is
	// not in it: Job.Opts.Trace is whatever the caller set, nil for TraceCap
	// jobs.
	Job      Job
	Res      *exp.Result
	Err      error
	Panicked bool
	Stack    string
	// Canceled marks a job that never ran because the fleet's context was
	// done before a worker picked it up; Err carries the context's error.
	// In-flight jobs are never interrupted — cancellation is at job
	// granularity, so every result is either complete or canceled.
	Canceled bool
	// Wall is the job's own execution time.
	Wall time.Duration
	// SimTime is the simulated duration the job covered (the option's
	// duration, or the definition's default when unset).
	SimTime sim.Duration
}

// Stats aggregates a fleet run.
type Stats struct {
	Runs   int
	Failed int
	// Canceled counts jobs skipped because the fleet's context was done.
	// They are not counted in Failed: a canceled job says nothing about
	// the experiment, only about the caller's deadline.
	Canceled int
	Workers  int
	// Wall is the fleet's end-to-end time; WorkWall is the sum of the
	// per-job times. WorkWall/Wall is the realized parallel speedup.
	Wall     time.Duration
	WorkWall time.Duration
	// SimTime is the total simulated time covered by all jobs.
	SimTime sim.Duration
	// Mallocs and AllocBytes are the process-wide heap allocation deltas
	// (runtime.MemStats) across the fleet run: the suite's allocation cost.
	// Process-wide means concurrent non-fleet allocations are included, but
	// a fleet run owns the process in every CLI, so in practice they are the
	// experiments' own numbers — the quantity the alloc-budget test bounds.
	Mallocs    uint64
	AllocBytes uint64
	// Counters is the fleet-total telemetry: every job's counter snapshot
	// folded together with telemetry.Merge (sum, or max for *_peak names).
	// Because both operations are commutative and associative and each job
	// owns a private registry, the totals are bit-identical regardless of
	// worker count or completion order. Nil when no job recorded telemetry.
	Counters map[string]uint64
}

// AllocsPerRun returns the mean heap allocations per job.
func (s Stats) AllocsPerRun() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.Mallocs) / float64(s.Runs)
}

// Fleet runs jobs on a bounded pool of workers.
type Fleet struct {
	// Workers bounds the concurrency; zero or negative means
	// runtime.GOMAXPROCS(0) (the -j default of the CLIs).
	Workers int
	// Hook, when set, observes each job's start/done/failed transitions.
	// It may be called from several workers at once and must be safe for
	// concurrent use.
	Hook exp.Hook
	// Telemetry gives each job a private counter registry (unless the job
	// already carries one in its Opts), so engines running on different
	// workers never share live counters; the snapshots merge into
	// Stats.Counters after the fleet drains.
	Telemetry bool
	// OnResult, when set, observes each completed Result the moment its job
	// finishes, before the fleet drains — the live-visibility feed behind
	// -http and the phantom-serve streaming results endpoint. i is the
	// job's index in the slice passed to Run, so consumers can key results
	// by submission order even though completion order varies. Called from
	// worker goroutines; it must be safe for concurrent use and should
	// return quickly.
	OnResult func(i int, r Result)
	// OnTrace, when set, is handed each recorded job's flight recorder on
	// the worker, once the job is complete and its store segment committed,
	// before OnResult. For a TraceCap job the recorder is the worker's own —
	// one ring per worker, emptied and lent to each job in turn — so tr is
	// valid only until OnTrace returns: export or copy what must outlive
	// the call. Called from worker goroutines; it must be safe for
	// concurrent use.
	OnTrace func(i int, job *Job, tr *trace.Tracer)
	// Store, when set, persists each job's results (summary metrics,
	// telemetry counters when recorded, flight-recorder events when the job
	// is recorded) into the columnar campaign store. Each worker
	// encodes and compresses its own job's segment in parallel; the writer
	// serializes them to disk in job-index order, so the campaign's bytes
	// are identical for any worker count. Write errors stick in the writer
	// and surface from its Close — check it after the fleet drains.
	Store *store.Writer
}

// commitStore encodes one finished job into the campaign store. Runs on
// the worker goroutine (the compression happens here, in parallel); only
// the final disk append is serialized inside Commit. A failed job commits
// an empty segment so the campaign keeps its one-segment-per-job shape.
func (f *Fleet) commitStore(i int, job *Job, r *Result, tr *trace.Tracer) {
	seg := f.Store.NewSegment(store.RunMeta{
		Experiment: job.Def.ID,
		Sweep:      job.SweepIndex,
		End:        sim.Time(r.SimTime),
	})
	if r.Res != nil {
		seg.AddSummary(r.Res.Summary)
		seg.AddCounters(r.Res.Counters)
	}
	if tr != nil {
		seg.AddTrace(tr.Retained())
	}
	f.Store.Commit(i, seg)
}

// recorder is a fleet worker's resident flight recorder: one ring for the
// worker's life, touched by that worker's goroutine only, so recording a
// campaign costs a ring per worker instead of a ring per run.
type recorder struct{ tr *trace.Tracer }

// lend returns the tracer job runs under, or nil when it is not recorded:
// the caller's own when Opts.Trace is preset, otherwise the resident ring,
// made on the worker's first TraceCap job (or a change of capacity) and
// emptied before every one — each run sees an empty ring that retains
// exactly the capacity it asked for, as if freshly made. Its storage is what
// the worker's busiest run so far recorded, never more than the capacity.
func (w *recorder) lend(job *Job) *trace.Tracer {
	if job.Opts.Trace != nil || job.TraceCap <= 0 {
		return job.Opts.Trace
	}
	if w.tr.Cap() != job.TraceCap {
		w.tr = trace.New(job.TraceCap)
	}
	w.tr.Reset()
	return w.tr
}

// Run executes the jobs and returns one Result per job, in job order
// (results are indexed, never appended, so completion order is invisible to
// callers). It blocks until every job finishes; a panicking job is captured
// into its Result and the fleet keeps going. Run never cancels: it is
// RunContext under a background context.
func (f *Fleet) Run(jobs []Job) ([]Result, Stats) {
	return f.RunContext(context.Background(), jobs)
}

// RunContext is Run with first-class cancellation. When ctx is done, jobs a
// worker has not yet picked up complete immediately as canceled Results
// (Canceled set, Err = ctx.Err()); jobs already executing run to completion
// — engines are single-goroutine and are never interrupted mid-run, so
// cancellation lands at job granularity and every non-canceled Result is a
// complete one. Canceled jobs still commit (empty) store segments, so a
// canceled campaign's writer seals into a readable store: the daemon's
// graceful-drain path relies on this. A background context reproduces Run
// exactly.
func (f *Fleet) RunContext(ctx context.Context, jobs []Job) ([]Result, Stats) {
	workers := f.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	results := make([]Result, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec recorder
			for i := range idx {
				tr := rec.lend(&jobs[i])
				if err := ctx.Err(); err != nil {
					results[i] = Result{Job: jobs[i], Err: err, Canceled: true}
				} else {
					results[i] = runOne(jobs[i], f.Hook, f.Telemetry, tr)
				}
				if f.Store != nil {
					f.commitStore(i, &jobs[i], &results[i], tr)
				}
				if tr != nil && f.OnTrace != nil {
					f.OnTrace(i, &jobs[i], tr)
				}
				if f.OnResult != nil {
					f.OnResult(i, results[i])
				}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	stats := Stats{Runs: len(jobs), Workers: workers, Wall: time.Since(start)}
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	stats.Mallocs = msAfter.Mallocs - msBefore.Mallocs
	stats.AllocBytes = msAfter.TotalAlloc - msBefore.TotalAlloc
	for i := range results {
		stats.WorkWall += results[i].Wall
		stats.SimTime += results[i].SimTime
		switch {
		case results[i].Canceled:
			stats.Canceled++
		case results[i].Err != nil:
			stats.Failed++
		}
		if res := results[i].Res; res != nil && len(res.Counters) > 0 {
			if stats.Counters == nil {
				stats.Counters = make(map[string]uint64, len(res.Counters))
			}
			telemetry.Merge(stats.Counters, res.Counters)
		}
	}
	return results, stats
}

// runOne executes a single job with panic capture, recording it on tr when
// non-nil. One call runs exactly one sim.Engine on the calling goroutine,
// honoring the engine contract.
func runOne(job Job, hook exp.Hook, tel bool, tr *trace.Tracer) (r Result) {
	r.Job = job
	job.Opts.Trace = tr // after r.Job: the result must not alias a lent recorder
	r.SimTime = job.Opts.Duration
	if r.SimTime <= 0 {
		r.SimTime = job.Def.Default
	}
	if !job.PinSeed {
		job.Opts.Seed = DeriveSeed(job.Def.ID, job.SweepIndex)
	}
	if tel && job.Opts.Telemetry == nil {
		// One registry per job: registries are single-goroutine like the
		// engines they observe, so sharing one across workers would race.
		job.Opts.Telemetry = telemetry.New()
	}
	start := time.Now()
	defer func() {
		r.Wall = time.Since(start)
		if p := recover(); p != nil {
			r.Res = nil
			r.Err = fmt.Errorf("runner: %s panicked: %v", job.Label(), p)
			r.Panicked = true
			r.Stack = string(debug.Stack())
			if hook != nil {
				hook(job.Def.ID, exp.PhaseFailed, r.Err)
			}
		}
	}()
	r.Res, r.Err = exp.Execute(job.Def, job.Opts, hook)
	return r
}
