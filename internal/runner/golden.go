package runner

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/exp"
	"repro/internal/sim"
)

// Snapshot is the golden-file form of one experiment's summary metrics: the
// scalar map plus the simulated duration it was measured at. Comparisons are
// only meaningful between snapshots of the same experiment at the same
// duration, so the duration travels with the data.
type Snapshot struct {
	ID string `json:"id"`
	// SimNanos is the simulated duration of the run in nanoseconds.
	SimNanos int64 `json:"sim_nanos"`
	// Seed is the derived seed the run used (0 for direct CLI runs that
	// kept the experiment's built-in seeds).
	Seed    uint64             `json:"seed,omitempty"`
	Summary map[string]float64 `json:"summary"`
}

// Duration returns the snapshot's simulated duration.
func (s Snapshot) Duration() sim.Duration { return sim.Duration(s.SimNanos) }

// SnapResult builds a snapshot directly from an experiment result, for
// callers that ran an experiment outside the fleet.
func SnapResult(res *exp.Result, d sim.Duration) Snapshot {
	return Snapshot{ID: res.ID, SimNanos: int64(d), Summary: res.Summary}
}

// GoldenPath returns the file a snapshot lives at inside dir. IDs are file
// names ("E01.json"); sweep labels like "E03#2" stay valid file names.
func GoldenPath(dir, id string) string {
	return filepath.Join(dir, id+".json")
}

// WriteFile serializes the snapshot under dir, creating dir as needed.
// encoding/json writes map keys in sorted order, so the files diff cleanly
// across regenerations.
func (s Snapshot) WriteFile(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(GoldenPath(dir, s.ID), b, 0o644)
}

// ReadSnapshot loads the golden snapshot for id from dir. A missing file
// returns os.ErrNotExist (callers treat that as "no baseline yet", not a
// failure).
func ReadSnapshot(dir, id string) (Snapshot, error) {
	b, err := os.ReadFile(GoldenPath(dir, id))
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return Snapshot{}, fmt.Errorf("runner: golden %s: %w", id, err)
	}
	return s, nil
}

// goldenFloor is the magnitude below which a tolerance bound becomes
// absolute (see Tolerance).
const goldenFloor = 1e-9

// Tolerance bounds acceptable drift per metric. A metric passes when
// |got-want| <= tol * max(|want|, goldenFloor): relative error for metrics
// of honest magnitude, absolute error below the floor so near-zero
// baselines (a 0-cell queue, a 0-drop counter) do not turn any noise into
// infinite relative drift.
type Tolerance struct {
	// Default applies to metrics with no override. Zero means exact
	// (bit-identical after JSON round-trip).
	Default float64
	// PerMetric overrides the default for exact metric names first, then
	// for any rule whose name is a prefix of the metric (longest prefix
	// wins), so "conv_ms" loosens every per-algorithm convergence column.
	PerMetric map[string]float64
}

// DefaultTolerance returns the suite-wide policy: metrics must match to a
// relative 1e-9 — same binary, same seed, same arithmetic — except
// convergence/settling times, which sit on threshold crossings where a
// one-ULP difference (e.g. an FMA-fusing architecture) can move the crossing
// to an adjacent measurement interval, so they get a 2% band.
func DefaultTolerance() Tolerance {
	return Tolerance{
		Default: 1e-9,
		PerMetric: map[string]float64{
			"conv_ms":         0.02,
			"capc_conv_ms":    0.02,
			"phantom_conv_ms": 0.02,
			"sim_settle_ms":   0.02,
		},
	}
}

// forMetric resolves the tolerance for one metric name.
func (t Tolerance) forMetric(name string) float64 {
	if t.PerMetric == nil {
		return t.Default
	}
	if tol, ok := t.PerMetric[name]; ok {
		return tol
	}
	best, bestLen := t.Default, -1
	for prefix, tol := range t.PerMetric {
		if len(prefix) > bestLen && strings.HasPrefix(name, prefix) {
			best, bestLen = tol, len(prefix)
		}
	}
	return best
}

// Drift is one metric outside tolerance, or a metric present on only one
// side of the comparison (Missing/Extra).
type Drift struct {
	Metric  string
	Got     float64
	Want    float64
	RelErr  float64 // |got-want| / max(|want|, goldenFloor)
	Allowed float64
	Missing bool // in the golden file but not the run
	Extra   bool // in the run but not the golden file
}

// String renders the drift for reports.
func (d Drift) String() string {
	switch {
	case d.Missing:
		return fmt.Sprintf("%s: missing from run (golden %v)", d.Metric, d.Want)
	case d.Extra:
		return fmt.Sprintf("%s: not in golden file (run %v)", d.Metric, d.Got)
	default:
		return fmt.Sprintf("%s: got %v want %v (rel err %.3g > %.3g)",
			d.Metric, d.Got, d.Want, d.RelErr, d.Allowed)
	}
}

// Compare flags every metric of got that drifted beyond tolerance from the
// golden want, plus metrics present on only one side. An empty slice means
// the run reproduces the baseline. Comparing snapshots taken at different
// simulated durations is a category error and returns a single synthetic
// drift saying so.
func Compare(got, want Snapshot, tol Tolerance) []Drift {
	if got.SimNanos != want.SimNanos {
		return []Drift{{
			Metric: "sim_nanos",
			Got:    float64(got.SimNanos),
			Want:   float64(want.SimNanos),
			RelErr: math.Inf(1), Allowed: 0,
		}}
	}
	var drifts []Drift
	names := make([]string, 0, len(want.Summary))
	for name := range want.Summary {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := want.Summary[name]
		g, ok := got.Summary[name]
		if !ok {
			drifts = append(drifts, Drift{Metric: name, Want: w, Missing: true})
			continue
		}
		allowed := tol.forMetric(name)
		scale := math.Abs(w)
		if scale < goldenFloor {
			scale = goldenFloor
		}
		rel := math.Abs(g-w) / scale
		// NaN on either side never matches unless both are NaN: a metric
		// decaying to NaN is exactly the kind of silent change the golden
		// net exists to catch.
		if math.IsNaN(g) != math.IsNaN(w) || (!math.IsNaN(g) && rel > allowed) {
			if math.IsNaN(g) || math.IsNaN(w) {
				rel = math.Inf(1)
			}
			drifts = append(drifts, Drift{Metric: name, Got: g, Want: w, RelErr: rel, Allowed: allowed})
		}
	}
	extras := make([]string, 0)
	for name := range got.Summary {
		if _, ok := want.Summary[name]; !ok {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range extras {
		drifts = append(drifts, Drift{Metric: name, Got: got.Summary[name], Extra: true})
	}
	return drifts
}
