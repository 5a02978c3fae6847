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
//
// An event-driven series keeps its own points. A sampled series (one
// acquired on a Clock) keeps only values: vals[i] was taken at the clock's
// instant first+i, so every series a sampler records shares one time
// column.
type Series struct {
	Name   string
	points []Point
	clock  *Clock
	first  int
	vals   []float64
	pooled bool // grows through the capacity classes (AcquireSeries)
}

// Clock is a sampler's time column: the sampler ticks it once per sampling
// instant and then records one value into each series it samples.
type Clock struct {
	times []sim.Time
}

// Storage is recycled across series lifetimes (sweep points in a parameter
// sweep build and discard a full scenario each). A column whose capacity is
// a power of two of at least minClass elements belongs to that capacity's
// class pool; any other capacity is a sampler's exact hint and goes to the
// hint pool, which lends it only to the same hint. Every pool thus holds
// one size per key, so capacity lent out cannot ratchet up however long and
// short series trade columns (DESIGN.md §9).
const minClass = 16

// columnPool recycles one element type's columns.
type columnPool[T any] struct {
	classes [bits.UintSize]sync.Pool // [k]: *T heading 1<<k elements
	hint    sync.Pool
}

var (
	pointPool columnPool[Point]    // event-driven series
	valuePool columnPool[float64]  // sampled series
	timePool  columnPool[sim.Time] // clocks
)

// class returns the pool index of capacity n, or -1 if n is not a class.
func class(n int) int {
	if n < minClass || n&(n-1) != 0 {
		return -1
	}
	return bits.TrailingZeros(uint(n))
}

// get returns an empty column of capacity exactly n > 0.
func (p *columnPool[T]) get(n int) []T {
	if k := class(n); k >= 0 {
		if e, ok := p.classes[k].Get().(*T); ok {
			return unsafe.Slice(e, n)[:0]
		}
	} else if buf, ok := p.hint.Get().([]T); ok && cap(buf) == n {
		return buf
	}
	return make([]T, 0, n)
}

// put hands buf's storage back to the pool of its capacity. A class pool
// keeps only the first element's address, which an interface holds
// without allocating; the class fixes the length.
func (p *columnPool[T]) put(buf []T) {
	if k := class(cap(buf)); k >= 0 {
		p.classes[k].Put(unsafe.SliceData(buf))
	} else if cap(buf) > 0 {
		p.hint.Put(buf[:0])
	}
}

// grow moves full column buf up a class. The outgrown column goes back only
// once copied, since another engine's series may take it at once.
func (p *columnPool[T]) grow(buf []T) []T {
	next := p.get(max(minClass, 1<<bits.Len(uint(cap(buf)))))
	next = append(next, buf...)
	p.put(buf)
	return next
}

// AcquireClock returns an empty clock on pooled storage. A positive hint,
// for a sampler with a known cadence (run duration / sample interval),
// pre-sizes its time column and every series acquired on it exactly; with
// 0 both grow through the capacity classes. Release it after every series
// on it.
func AcquireClock(hint int) Clock {
	var c Clock
	if hint > 0 {
		c.times = timePool.get(hint)
	}
	return c
}

// Release returns the clock's time column to its pool and empties it.
func (c *Clock) Release() {
	timePool.put(c.times)
	c.times = nil
}

// Tick records the sampling instant t and returns the step from the
// previous instant (from 0 for the first). Instants must not decrease; a
// tick at the previous instant adds nothing and returns 0.
func (c *Clock) Tick(t sim.Time) sim.Duration {
	var last sim.Time
	if n := len(c.times); n > 0 {
		last = c.times[n-1]
		if t < last {
			panic(fmt.Sprintf("metrics: clock tick at %v before last %v", t, last))
		}
		if t == last {
			return 0
		}
	}
	if len(c.times) == cap(c.times) {
		c.times = timePool.grow(c.times)
	}
	c.times = append(c.times, t)
	return t.Sub(last)
}

// Held returns the bytes of the clock's time column.
func (c *Clock) Held() int { return cap(c.times) * int(unsafe.Sizeof(sim.Time(0))) }

// AcquireSeries returns a named series backed by pooled storage. With a
// nil clock it records events: storage starts empty and doubles through
// the capacity classes, handing each outgrown column back. With a clock it
// is sampled: it stores one value per tick in a column sized like the
// clock's. Pair with Release when every read of the series is done; a
// series that escapes to a caller (figure data) should be a plain
// &Series{Name: name}, which grows by append.
func AcquireSeries(name string, c *Clock) *Series {
	s := &Series{Name: name, clock: c, pooled: true}
	if c != nil && cap(c.times) > 0 {
		s.vals = valuePool.get(cap(c.times))
	}
	return s
}

// Release returns the series' storage to its pool and empties the series.
// The caller must not touch previously returned Points afterwards.
func (s *Series) Release() {
	pointPool.put(s.points)
	valuePool.put(s.vals)
	s.points, s.clock, s.vals = nil, nil, nil
}

// Held returns the bytes of the series' own storage and, for a sampled
// series, the clock whose time column it shares.
func (s *Series) Held() (bytes int, clock *Clock) {
	return cap(s.points)*int(unsafe.Sizeof(Point{})) + cap(s.vals)*int(unsafe.Sizeof(0.0)), s.clock
}

// Add appends a sample. Samples must arrive in non-decreasing time order;
// a sample at the same instant as the previous one replaces it (the series
// records the post-event value of the quantity). A sampled series takes
// samples only at its clock's last tick.
func (s *Series) Add(t sim.Time, v float64) {
	if c := s.clock; c != nil {
		if n := len(c.times); n == 0 || t != c.times[n-1] {
			panic(fmt.Sprintf("metrics: series %q sample at %v off its clock's tick", s.Name, t))
		}
		s.Record(v)
		return
	}
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
		s.points = pointPool.grow(s.points)
	}
	s.points = append(s.points, Point{T: t, V: v})
}

// Record appends v to a sampled series at its clock's last tick, or
// replaces the value already recorded there. From its first value on, the
// series takes one on every tick.
func (s *Series) Record(v float64) {
	tick := len(s.clock.times) - 1
	switch end := s.first + len(s.vals); {
	case tick < 0:
		panic(fmt.Sprintf("metrics: series %q recorded before its clock's first tick", s.Name))
	case len(s.vals) == 0:
		s.first = tick
	case end == tick+1:
		s.vals[len(s.vals)-1] = v
		return
	case end != tick:
		panic(fmt.Sprintf("metrics: series %q skipped a tick of its clock", s.Name))
	}
	if len(s.vals) == cap(s.vals) {
		s.vals = valuePool.grow(s.vals)
	}
	s.vals = append(s.vals, v)
}

// size returns the number of samples.
func (s *Series) size() int {
	if s.clock != nil {
		return len(s.vals)
	}
	return len(s.points)
}

// at returns sample i, 0 ≤ i < size().
func (s *Series) at(i int) Point {
	if s.clock != nil {
		return Point{T: s.clock.times[s.first+i], V: s.vals[i]}
	}
	return s.points[i]
}

// after returns the index of the first sample later than t.
func (s *Series) after(t sim.Time) int {
	if s.clock != nil {
		times := s.clock.times[s.first : s.first+len(s.vals)]
		return sort.Search(len(times), func(i int) bool { return times[i] > t })
	}
	return sort.Search(len(s.points), func(i int) bool { return s.points[i].T > t })
}

// Points returns the samples. Callers must not mutate the slice. An
// event-driven series returns its own, valid until the next Add; a sampled
// series builds one on each call, for cold callers (store writes,
// figures). Every other read goes through the samples in place.
func (s *Series) Points() []Point {
	if s.clock == nil {
		return s.points
	}
	out := make([]Point, len(s.vals))
	for i := range out {
		out[i] = s.at(i)
	}
	return out
}

// At returns the value in effect at time t using step (zero-order-hold)
// interpolation: the most recent sample at or before t. Before the first
// sample it returns 0.
func (s *Series) At(t sim.Time) float64 {
	i := s.after(t)
	if i == 0 {
		return 0
	}
	return s.at(i - 1).V
}

// Last returns the final sample value, or 0 for an empty series.
func (s *Series) Last() float64 {
	n := s.size()
	if n == 0 {
		return 0
	}
	return s.at(n - 1).V
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
	for i, n := s.after(from), s.size(); i < n; i++ {
		p := s.at(i)
		if p.T > to {
			break
		}
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
