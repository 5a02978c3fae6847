package switchalg

import (
	"cmp"
	"slices"

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
	demands map[atm.VCID]demand
	// byVC is recompute's scratch: the live demands in VC order, so the
	// water-fill subtracts them in an order no map iteration can change.
	byVC  []vcDemand
	share float64
	port  Port
	tel   algTel
}

// ExactMaxMin's parameters.
const (
	// exactTargetUtil scales the capacity being divided: Phantom's target,
	// so the comparison is about the allocator, not the headroom.
	exactTargetUtil = 0.95
	// exactExpiry removes a VC whose forward RM cells stop arriving; this
	// is how leaves and on/off off-phases are detected.
	exactExpiry = 50 * sim.Millisecond
	// exactRecomputeEvery is the share recomputation interval.
	exactRecomputeEvery = sim.Millisecond
)

// Instrument implements Algorithm.
func (a *ExactMaxMin) Instrument(reg *telemetry.Registry) { a.tel.instrument(reg) }

type demand struct {
	ccr  float64
	seen sim.Time
}

// vcDemand is one VC's demand in a water-fill; done once it is satisfied.
type vcDemand struct {
	vc   atm.VCID
	ccr  float64
	done bool
}

// NewExactMaxMin returns a factory for the reference allocator.
func NewExactMaxMin() Factory {
	return func() Algorithm { return &ExactMaxMin{} }
}

// Attach implements Algorithm.
func (a *ExactMaxMin) Attach(e *sim.Engine, p Port) {
	a.demands = make(map[atm.VCID]demand)
	a.port = p
	a.share = p.Capacity() * exactTargetUtil
	e.Every(exactRecomputeEvery, exactRecompute, sim.Payload{Obj: a})
}

// exactRecompute re-solves the allocation of the ExactMaxMin in p.Obj.
func exactRecompute(e *sim.Engine, p sim.Payload) { p.Obj.(*ExactMaxMin).recompute(e.Now()) }

// FairShare implements Algorithm: the max-min share.
func (a *ExactMaxMin) FairShare() float64 { return a.share }

// recompute expires stale VCs and water-fills the capacity over the
// remaining demands: sessions demanding less than an equal split keep
// their demand; the leftovers are divided equally among the rest.
func (a *ExactMaxMin) recompute(now sim.Time) {
	a.tel.updates.Inc()
	// Read the line rate live so transient capacity changes re-divide the
	// new capacity instead of the Attach-time snapshot.
	capacity := a.port.Capacity() * exactTargetUtil
	a.byVC = a.byVC[:0]
	for vc, d := range a.demands {
		if now.Sub(d.seen) > exactExpiry {
			delete(a.demands, vc)
			continue
		}
		a.byVC = append(a.byVC, vcDemand{vc: vc, ccr: d.ccr})
	}
	if len(a.byVC) == 0 {
		a.share = capacity
		return
	}
	// Float subtraction is order-sensitive: fill in VC order.
	slices.SortFunc(a.byVC, func(x, y vcDemand) int { return cmp.Compare(x.vc, y.vc) })
	// Water-fill: iterate until no demand below the current equal share
	// (n is small in these experiments; an O(n²) fill keeps the code
	// obvious).
	remaining := capacity
	unsat := len(a.byVC)
	for unsat > 0 {
		fill := remaining / float64(unsat)
		progressed := false
		for i := range a.byVC {
			d := &a.byVC[i]
			if d.done || d.ccr > fill {
				continue
			}
			remaining -= d.ccr
			d.done = true
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
