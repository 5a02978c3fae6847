package metrics

import "repro/internal/sim"

// ConvergenceTime returns the settling time of the series against target:
// the earliest time in [from, until] after which the series stays inside the
// band target·(1±tol) for the remainder of the observation window. To guard
// against vacuous convergence at the very end of a run, the settled stretch
// must be at least hold long. ok is false when the series never settles.
// Convergence time is the headline speed metric of the Section 5 comparison
// (Phantom vs EPRCA/APRC/CAPC).
func ConvergenceTime(s *Series, from, until sim.Time, target, tol float64, hold sim.Duration) (sim.Time, bool) {
	if target == 0 || until <= from {
		return 0, false
	}
	lo := target * (1 - tol)
	hi := target * (1 + tol)
	if lo > hi {
		lo, hi = hi, lo
	}
	inside := func(v float64) bool { return v >= lo && v <= hi }

	in := inside(s.At(from))
	entered := from
	for i, n := s.after(from), s.size(); i < n; i++ {
		p := s.at(i)
		if p.T > until {
			break
		}
		nowIn := inside(p.V)
		if nowIn && !in {
			entered = p.T
		}
		in = nowIn
	}
	if in && until-entered >= sim.Time(hold) {
		return entered, true
	}
	return 0, false
}
