// Package metrics provides the measurement machinery for the experiments:
// time series sampled from the simulator, Jain's fairness index, a max-min
// fairness oracle (iterative water-filling), convergence-time detection and
// queue statistics. Every figure in the paper is a plot of one or more of
// these quantities.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/sim"
)

// Point is one sample of a time series. Its JSON form, {"t": simulated
// nanoseconds, "v": value}, is a series point on the daemon's analytics
// wire.
type Point struct {
	T sim.Time `json:"t"`
	V float64  `json:"v"`
}

// Series is an append-only time series with non-decreasing timestamps.
// It represents quantities like "queue length of port 2" or "ACR of
// session 1" over a run.
type Series struct {
	Name   string
	points []Point
	lent   int // capacity AcquireSeries handed out; 0: not pooled storage
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// NewSeriesCap returns an empty named series whose point storage is
// pre-sized for capHint samples, so a sampler with a known cadence (run
// duration / sample interval) appends without any append-doubling
// reallocations. A non-positive hint is the same as NewSeries.
func NewSeriesCap(name string, capHint int) *Series {
	s := &Series{Name: name}
	if capHint > 0 {
		s.points = make([]Point, 0, capHint)
	}
	return s
}

// pointPool recycles point storage across series lifetimes (sweep points in
// a parameter sweep build and discard a full scenario each). Slices are
// pooled with their capacity; Acquire re-slices to zero length. A slice that
// had to be regrown is not pooled: the pool hands slices out in no particular
// order, so long series would keep drawing short slices while their long ones
// went to short series, and pooled capacity would only ever rise (DESIGN.md §9).
var pointPool = sync.Pool{New: func() any { return []Point(nil) }}

// AcquireSeries returns a named series backed by pooled point storage. Pair
// with Release when every read of the series is done; a series that escapes
// to a caller (figure data) should use NewSeries/NewSeriesCap instead.
func AcquireSeries(name string, capHint int) *Series {
	s := &Series{Name: name}
	buf := pointPool.Get().([]Point)
	if cap(buf) < capHint {
		buf = make([]Point, 0, capHint)
	}
	s.points = buf[:0]
	s.lent = cap(buf)
	return s
}

// Release returns the series' point storage to the pool, unless the series
// outgrew a pooled slice, and empties the series. The caller must not touch
// previously returned Points afterwards.
func (s *Series) Release() {
	if s.points != nil {
		if s.lent == 0 || cap(s.points) == s.lent {
			pointPool.Put(s.points[:0])
		}
		s.points, s.lent = nil, 0
	}
}

// Reset empties the series in place, keeping its storage for reuse.
func (s *Series) Reset() { s.points = s.points[:0] }

// Add appends a sample. Samples must arrive in non-decreasing time order;
// a sample at the same instant as the previous one replaces it (the series
// records the post-event value of the quantity).
func (s *Series) Add(t sim.Time, v float64) {
	if n := len(s.points); n > 0 {
		last := s.points[n-1]
		if t < last.T {
			panic(fmt.Sprintf("metrics: series %q sample at %v before last %v", s.Name, t, last.T))
		}
		if t == last.T {
			s.points[n-1].V = v
			return
		}
	}
	s.points = append(s.points, Point{T: t, V: v})
}

// Len returns the number of stored samples.
func (s *Series) Len() int { return len(s.points) }

// Points returns the underlying samples. Callers must not mutate the slice.
func (s *Series) Points() []Point { return s.points }

// At returns the value in effect at time t using step (zero-order-hold)
// interpolation: the most recent sample at or before t. Before the first
// sample it returns 0.
func (s *Series) At(t sim.Time) float64 {
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.points[i-1].V
}

// Last returns the final sample value, or 0 for an empty series.
func (s *Series) Last() float64 {
	if len(s.points) == 0 {
		return 0
	}
	return s.points[len(s.points)-1].V
}

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

// TimeAvg returns the time-weighted average of the series over [from, to]
// under step interpolation. It answers "what was the mean queue length",
// where a long-lived value must weigh more than a momentary spike.
func (s *Series) TimeAvg(from, to sim.Time) float64 {
	if to <= from {
		return s.At(from)
	}
	var sum float64
	cur := s.At(from)
	prev := from
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].T > from })
	for ; i < len(s.points) && s.points[i].T <= to; i++ {
		p := s.points[i]
		sum += cur * float64(p.T-prev)
		cur = p.V
		prev = p.T
	}
	sum += cur * float64(to-prev)
	return sum / float64(to-from)
}

// Resample returns n+1 evenly spaced step-interpolated values spanning
// [from, to]. It is how figures are rendered at fixed horizontal resolution.
func (s *Series) Resample(from, to sim.Time, n int) []Point {
	if n < 1 || to < from {
		return nil
	}
	out := make([]Point, 0, n+1)
	for i := 0; i <= n; i++ {
		t := from + sim.Time(int64(to-from)*int64(i)/int64(n))
		out = append(out, Point{T: t, V: s.At(t)})
	}
	return out
}
