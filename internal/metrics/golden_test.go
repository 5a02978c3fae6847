// Golden-file tests for the metric kernels. Every fairness, convergence and
// max-min number below is computed from fixed synthetic inputs and compared
// against internal/metrics/testdata/golden/metrics.json through the runner's
// snapshot/tolerance machinery, so a refactor of the metric code that shifts
// any value is caught here directly — without running (or waiting for) a
// full experiment, and independently of the per-experiment golden files.
//
// Regenerate the baseline after an intentional change with:
//
//	go test ./internal/metrics -run TestMetricsGolden -update-golden
package metrics_test

import (
	"errors"
	"flag"
	"math"
	"os"
	"testing"

	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the metrics golden baseline")

const goldenDir = "testdata/golden"

// sawtoothSeries builds the fixed series the convergence and quantile
// metrics are pinned on: a decaying sawtooth that settles toward target.
func sawtoothSeries() *metrics.Series {
	s := metrics.NewSeries("sawtooth")
	target := 100.0
	amp := 80.0
	for i := 0; i <= 200; i++ {
		t := sim.Time(i) * sim.Time(sim.Millisecond)
		// Decaying oscillation around the target; fully deterministic.
		v := target + amp*math.Exp(-float64(i)/40)*math.Cos(float64(i)/5)
		s.Add(t, v)
	}
	return s
}

// stepSeries is a plain two-level step for the time-average pins.
func stepSeries() *metrics.Series {
	s := metrics.NewSeries("step")
	s.Add(0, 10)
	s.Add(sim.Time(40*sim.Millisecond), 30)
	s.Add(sim.Time(90*sim.Millisecond), 20)
	return s
}

// metricsSummary computes every pinned metric. Adding a metric here without
// regenerating the baseline fails the test with an "extra metric" drift —
// which is the intended nudge to re-record on purpose, not by accident.
func metricsSummary(t *testing.T) map[string]float64 {
	t.Helper()
	sum := map[string]float64{}

	// Fairness kernels on fixed allocations.
	sum["jain_equal"] = metrics.JainIndex([]float64{5, 5, 5, 5})
	sum["jain_skewed"] = metrics.JainIndex([]float64{9, 3, 3, 1})
	sum["jain_negative_clamped"] = metrics.JainIndex([]float64{4, -2, 4})
	sum["normjain"] = metrics.NormalizedJainIndex([]float64{30, 60, 88}, []float64{30, 60, 90})
	sum["minmax"] = metrics.MinMaxRatio([]float64{2, 8, 4})

	// The max-min oracle on the parking-lot topology (three links, one
	// all-hops session plus one single-hop session per link).
	rates, err := metrics.MaxMinSolve(metrics.MaxMinProblem{
		Capacity: []float64{150, 100, 150},
		Sessions: [][]int{{0, 1, 2}, {0}, {1}, {2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rates {
		sum["maxmin_rate_"+string(rune('0'+i))] = r
	}

	// The paper's closed-form equilibrium (Table 1).
	macr, rate := metrics.PhantomEquilibrium(353773, 5, 0.9)
	sum["equilibrium_macr"] = macr
	sum["equilibrium_rate"] = rate

	// Convergence detection on the decaying sawtooth.
	saw := sawtoothSeries()
	end := sim.Time(200 * sim.Millisecond)
	if ct, ok := metrics.ConvergenceTime(saw, 0, end, 100, 0.1, 20*sim.Millisecond); ok {
		sum["conv_ms_sawtooth"] = float64(ct) / float64(sim.Millisecond)
	} else {
		t.Fatal("sawtooth never converged — fixture broken")
	}
	st := metrics.Settling(saw, 0, end, 100)
	sum["settle_meanabserr"] = st.MeanAbsErr
	sum["settle_overshoot"] = st.Overshoot

	// Series statistics on the step fixture.
	step := stepSeries()
	to := sim.Time(100 * sim.Millisecond)
	sum["timeavg_step"] = step.TimeAvg(0, to)
	sum["p99_sawtooth"] = saw.Percentile(0, end, 0.99)
	sum["p50_sawtooth"] = saw.Percentile(0, end, 0.50)
	sum["max_sawtooth"] = saw.Max(0, end)
	return sum
}

func TestMetricsGolden(t *testing.T) {
	snap := runner.Snapshot{ID: "metrics", Summary: metricsSummary(t)}
	if *updateGolden {
		if err := snap.WriteFile(goldenDir); err != nil {
			t.Fatal(err)
		}
		t.Log("golden baseline rewritten")
		return
	}
	want, err := runner.ReadSnapshot(goldenDir, "metrics")
	if errors.Is(err, os.ErrNotExist) {
		t.Fatal("no golden baseline — run with -update-golden to record one")
	}
	if err != nil {
		t.Fatal(err)
	}
	// Pure arithmetic on fixed inputs: exact down to the JSON round-trip,
	// with only the convergence-time escape hatch every golden gets.
	drifts := runner.Compare(snap, want, runner.DefaultTolerance())
	for _, d := range drifts {
		t.Errorf("drift: %s", d)
	}
}
