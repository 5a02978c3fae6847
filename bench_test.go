package repro

import (
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/runner"
)

// The reduced per-experiment durations live in runner.QuickDuration — one
// profile shared by these benchmarks, the golden baselines, and
// phantom-suite -quick, so "what the benchmarks measure" and "what the
// regression net pins" are the same runs by construction. Per-experiment
// wall time and summary metrics: phantom-suite -quick -json.

// eSeriesJobs builds one quick-duration job per E-series experiment.
func eSeriesJobs(b *testing.B) []runner.Job {
	b.Helper()
	var jobs []runner.Job
	exp.Walk(func(d exp.Definition) bool {
		if strings.HasPrefix(d.ID, "E") {
			jobs = append(jobs, runner.Job{Def: d, Opts: exp.Options{
				Quiet: true, Duration: runner.QuickDuration(d.ID)}})
		}
		return true
	})
	if len(jobs) == 0 {
		b.Fatal("no E-series experiments registered")
	}
	return jobs
}

// benchSuite runs the full E-series through the fleet at the given worker
// count and reports the work-time/wall-time ratio and the
// simulated-seconds-per-wall-second throughput. The true wall-clock speedup
// is the ratio of the two benchmarks' time/op — on a multi-core machine the
// j=4 case finishes the same jobs in a fraction of the sequential wall time,
// while on a single core both take the same time (the work/wall metric then
// merely reflects time-slicing, not a win).
func benchSuite(b *testing.B, workers int) {
	jobs := eSeriesJobs(b)
	fleet := &runner.Fleet{Workers: workers}
	b.ReportAllocs()
	var last runner.Stats
	for i := 0; i < b.N; i++ {
		results, stats := fleet.Run(jobs)
		for _, r := range results {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.Job.Label(), r.Err)
			}
		}
		last = stats
	}
	b.ReportMetric(float64(last.WorkWall)/float64(last.Wall), "speedup")
	b.ReportMetric(last.SimTime.Seconds()/last.Wall.Seconds(), "sim_s/wall_s")
}

// BenchmarkSuiteSequential is the baseline: the whole E-series on one
// worker, i.e. what the pre-fleet harness did.
func BenchmarkSuiteSequential(b *testing.B) { benchSuite(b, 1) }

// BenchmarkSuiteParallel4 is the fleet at -j 4. Compare its time/op against
// BenchmarkSuiteSequential for the wall-clock speedup on your hardware.
func BenchmarkSuiteParallel4(b *testing.B) { benchSuite(b, 4) }
