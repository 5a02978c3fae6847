package switchalg

import (
	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ExactMaxMin is an *unbounded-space* reference algorithm from the other
// side of the paper's taxonomy (the [CCJ95, KVR95, CR96, TW96] class): it
// keeps per-VC state — the demand advertised in each forward RM cell — and
// computes the exact max-min fair share of the port by water-filling over
// those demands. Backward RM cells get ER := min(ER, share).
//
// It exists as the upper bound the constant-space algorithms approximate:
// perfect fairness and full utilization (no phantom discount), at the cost
// of O(#VC) memory and O(#VC log #VC) work per recomputation — exactly the
// cost the paper's constant-space design avoids. Experiment E18 compares
// it against Phantom.
type ExactMaxMin struct {
	// TargetUtil scales the capacity being divided (default 0.95, matching
	// Phantom's target so the comparison is about the allocator, not the
	// headroom).
	TargetUtil float64
	// Expiry removes a VC whose forward RM cells stop arriving (default
	// 50 ms); this is how leaves and on/off off-phases are detected.
	Expiry sim.Duration
	// Recompute is the share recomputation interval (default 1 ms).
	Recompute sim.Duration

	demands map[atm.VCID]demand
	share   float64
	port    Port
	tel     algTel
}

// Instrument implements Instrumenter.
func (a *ExactMaxMin) Instrument(reg *telemetry.Registry) { a.tel.instrument(reg) }

type demand struct {
	ccr  float64
	seen sim.Time
}

// NewExactMaxMin returns a factory for the reference allocator.
func NewExactMaxMin() Factory {
	return func() Algorithm { return &ExactMaxMin{} }
}

// Attach implements Algorithm.
func (a *ExactMaxMin) Attach(e *sim.Engine, p Port) {
	if a.TargetUtil == 0 {
		a.TargetUtil = 0.95
	}
	if a.Expiry == 0 {
		a.Expiry = 50 * sim.Millisecond
	}
	if a.Recompute == 0 {
		a.Recompute = sim.Millisecond
	}
	a.demands = make(map[atm.VCID]demand)
	a.port = p
	a.share = p.Capacity() * a.TargetUtil
	e.Every(a.Recompute, exactRecompute, sim.Payload{Obj: a})
}

// exactRecompute re-solves the allocation of the ExactMaxMin in p.Obj.
func exactRecompute(e *sim.Engine, p sim.Payload) { p.Obj.(*ExactMaxMin).recompute(e.Now()) }

// Share returns the current fair share (cells/s).
func (a *ExactMaxMin) Share() float64 { return a.share }

// recompute expires stale VCs and water-fills the capacity over the
// remaining demands: sessions demanding less than an equal split keep
// their demand; the leftovers are divided equally among the rest.
func (a *ExactMaxMin) recompute(now sim.Time) {
	a.tel.updates.Inc()
	// Read the line rate live so transient capacity changes re-divide the
	// new capacity instead of the Attach-time snapshot.
	capacity := a.port.Capacity() * a.TargetUtil
	for vc, d := range a.demands {
		if now.Sub(d.seen) > a.Expiry {
			delete(a.demands, vc)
		}
	}
	n := len(a.demands)
	if n == 0 {
		a.share = capacity
		return
	}
	// Water-fill: iterate until no demand below the current equal share.
	remaining := capacity
	unsat := n
	// Collect demands (n is small in these experiments; an O(n²) fill
	// keeps the code obvious).
	ds := make([]float64, 0, n)
	for _, d := range a.demands {
		ds = append(ds, d.ccr)
	}
	done := make([]bool, len(ds))
	for {
		if unsat == 0 {
			break
		}
		fill := remaining / float64(unsat)
		progressed := false
		for i, d := range ds {
			if done[i] || d > fill {
				continue
			}
			remaining -= d
			done[i] = true
			unsat--
			progressed = true
		}
		if !progressed {
			a.share = fill
			return
		}
	}
	a.share = capacity // every session satisfied below its demand
}

// OnArrival implements Algorithm.
func (a *ExactMaxMin) OnArrival(sim.Time, *atm.Cell) {}

// OnTransmit implements Algorithm.
func (a *ExactMaxMin) OnTransmit(sim.Time, *atm.Cell) {}

// OnForwardRM implements Algorithm: record the VC's demand.
func (a *ExactMaxMin) OnForwardRM(now sim.Time, c *atm.Cell) {
	a.demands[c.VC] = demand{ccr: c.CCR, seen: now}
}

// OnBackwardRM implements Algorithm: clamp to the exact share.
func (a *ExactMaxMin) OnBackwardRM(_ sim.Time, c *atm.Cell) {
	if a.share < c.ER {
		c.ER = a.share
		a.tel.marks.Inc()
	}
}
