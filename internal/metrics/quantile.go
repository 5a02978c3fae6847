package metrics

import (
	"sort"

	"repro/internal/sim"
)

// Percentile returns the time-weighted p-quantile (p in [0,1]) of the
// series over [from, to] under step interpolation: the smallest value v
// such that the series is ≤ v for at least fraction p of the window. It
// answers questions like "what was the 99th-percentile queue length",
// where the tail matters more than the peak.
func (s *Series) Percentile(from, to sim.Time, p float64) float64 {
	if to <= from {
		return s.At(from)
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	type span struct {
		v float64
		w int64 // duration weight in ns
	}
	var spans []span
	cur := s.At(from)
	prev := from
	for i, n := s.after(from), s.size(); i < n; i++ {
		pt := s.at(i)
		if pt.T > to {
			break
		}
		spans = append(spans, span{cur, int64(pt.T - prev)})
		cur = pt.V
		prev = pt.T
	}
	spans = append(spans, span{cur, int64(to - prev)})

	sort.Slice(spans, func(i, j int) bool { return spans[i].v < spans[j].v })
	var total int64
	for _, sp := range spans {
		total += sp.w
	}
	if total == 0 {
		return cur
	}
	threshold := int64(p * float64(total))
	var acc int64
	for _, sp := range spans {
		acc += sp.w
		if acc >= threshold {
			return sp.v
		}
	}
	return spans[len(spans)-1].v
}
