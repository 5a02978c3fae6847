package metrics

import (
	"math"

	"repro/internal/sim"
)

// NewSeries returns an empty named series that grows by plain append, the
// kernels' test fixture.
func NewSeries(name string) *Series { return &Series{Name: name} }

// The golden test pins these two kernels' values on its fixtures
// (testdata/golden/metrics.json); no production code computes them.

// Max returns the maximum sample value in [from, to], or 0 if no samples
// fall in the window.
func (s *Series) Max(from, to sim.Time) float64 {
	max := math.Inf(-1)
	any := false
	for _, p := range s.points {
		if p.T < from || p.T > to {
			continue
		}
		any = true
		if p.V > max {
			max = p.V
		}
	}
	if !any {
		return 0
	}
	return max
}

// SettlingStats summarizes a series against a target over [from, to]:
// mean absolute error relative to the target and the peak overshoot ratio.
type SettlingStats struct {
	MeanAbsErr float64 // time-averaged |v-target|/target
	Overshoot  float64 // max(v)/target
}

// Settling computes SettlingStats for the series.
func Settling(s *Series, from, to sim.Time, target float64) SettlingStats {
	if target == 0 || to <= from {
		return SettlingStats{}
	}
	var errSum float64
	cur := s.At(from)
	prev := from
	peak := cur
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	for _, p := range s.Points() {
		if p.T <= from {
			continue
		}
		if p.T > to {
			break
		}
		errSum += abs(cur-target) * float64(p.T-prev)
		if p.V > peak {
			peak = p.V
		}
		cur = p.V
		prev = p.T
	}
	errSum += abs(cur-target) * float64(to-prev)
	return SettlingStats{
		MeanAbsErr: errSum / float64(to-from) / target,
		Overshoot:  peak / target,
	}
}
