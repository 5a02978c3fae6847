// Package metrics provides the measurement machinery for the experiments:
// time series sampled from the simulator, Jain's fairness index, a max-min
// fairness oracle (iterative water-filling), convergence-time detection and
// queue statistics. Every figure in the paper is a plot of one or more of
// these quantities.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"unsafe"

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
	pooled bool // grows through the capacity classes (AcquireSeries)
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Point storage is recycled across series lifetimes (sweep points in a
// parameter sweep build and discard a full scenario each). A slice whose
// capacity is a power of two of at least minClass points belongs to that
// capacity's class pool; any other capacity is a sampler's exact hint and
// goes to hintPool, which lends it only to the same hint. Every pool thus
// holds one size per key, so capacity lent out cannot ratchet up however
// long and short series trade slices (DESIGN.md §9).
const minClass = 16

var (
	classPools [bits.UintSize]sync.Pool // [k]: *Point heading 1<<k points
	hintPool   sync.Pool
)

// class returns the pool index of capacity n, or -1 if n is not a class.
func class(n int) int {
	if n < minClass || n&(n-1) != 0 {
		return -1
	}
	return bits.TrailingZeros(uint(n))
}

// getPoints returns an empty slice of capacity exactly n > 0.
func getPoints(n int) []Point {
	if k := class(n); k >= 0 {
		if p, ok := classPools[k].Get().(*Point); ok {
			return unsafe.Slice(p, n)[:0]
		}
	} else if buf, ok := hintPool.Get().([]Point); ok && cap(buf) == n {
		return buf
	}
	return make([]Point, 0, n)
}

// putPoints hands buf's storage back to the pool of its capacity. A class
// pool keeps only the first element's address, which an interface holds
// without allocating; the class fixes the length.
func putPoints(buf []Point) {
	if k := class(cap(buf)); k >= 0 {
		classPools[k].Put(unsafe.SliceData(buf))
	} else if cap(buf) > 0 {
		hintPool.Put(buf[:0])
	}
}

// AcquireSeries returns a named series backed by pooled point storage. A
// positive capHint pre-sizes it exactly, for a sampler with a known cadence
// (run duration / sample interval); with 0, for a series that records
// events, storage starts empty and doubles through the capacity classes,
// handing each outgrown slice back. Either way Points is valid until the
// next Add. Pair with Release when every read of the series is done; a
// series that escapes to a caller (figure data) should use NewSeries.
func AcquireSeries(name string, capHint int) *Series {
	s := &Series{Name: name, pooled: true}
	if capHint > 0 {
		s.points = getPoints(capHint)
	}
	return s
}

// Release returns the series' point storage to its pool and empties the
// series. The caller must not touch previously returned Points afterwards.
func (s *Series) Release() {
	putPoints(s.points)
	s.points = nil
}

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
	if s.pooled && len(s.points) == cap(s.points) {
		// Move up a class; the outgrown slice goes back only once copied,
		// since another engine's series may take it at once.
		next := getPoints(max(minClass, 1<<bits.Len(uint(cap(s.points)))))
		next = append(next, s.points...)
		putPoints(s.points)
		s.points = next
	}
	s.points = append(s.points, Point{T: t, V: v})
}

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
