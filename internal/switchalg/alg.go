// Package switchalg implements the per-output-port rate-control algorithms
// compared in Section 5 of the paper: Phantom (the contribution) and the
// three other constant-space proposals from the ATM Forum — EPRCA (Roberts),
// APRC (Siu–Tzeng) and CAPC (Barnhart). All four keep O(1) state per port,
// which is the "constant space" class of the paper's taxonomy; a test
// enforces that none of them grows state with the number of VCs.
package switchalg

import (
	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Port is the view an algorithm has of the output port it controls.
type Port interface {
	// QueueLen returns the current output-queue length in cells.
	QueueLen() int
	// Capacity returns the port's line rate in cells/s.
	Capacity() float64
}

// Algorithm is a rate-control algorithm instance bound to one output port.
// The switch invokes the hooks; an algorithm may modify RM cells in place
// (writing ER and CI feedback) and may set the EFCI bit on data cells in
// OnArrival.
//
// Hook call sites:
//   - OnArrival: every cell about to be enqueued on the port (forward
//     direction of the cell's route through this port).
//   - OnTransmit: every cell the port finishes transmitting, regardless of
//     direction — this is the port's true utilization, which is what
//     Phantom meters.
//   - OnForwardRM: a forward RM cell arriving at the port (subset of
//     OnArrival calls, after OnArrival).
//   - OnBackwardRM: a backward RM cell of a VC whose *forward* data flows
//     through this port; the cell itself travels on the reverse port, but
//     the feedback must come from the forward port's state.
type Algorithm interface {
	// Attach binds the algorithm to its port and lets it schedule periodic
	// work on the engine. It is called exactly once, before any other hook.
	Attach(e *sim.Engine, p Port)
	OnArrival(now sim.Time, c *atm.Cell)
	OnTransmit(now sim.Time, c *atm.Cell)
	OnForwardRM(now sim.Time, c *atm.Cell)
	OnBackwardRM(now sim.Time, c *atm.Cell)
}

// Factory creates one Algorithm instance per port. Experiments are
// parameterized by a Factory so the same topology can run under any of the
// four algorithms.
type Factory func() Algorithm

// Instrumenter is the optional telemetry face of an Algorithm. Scenario
// builders type-assert for it after the factory call; every algorithm in
// this package implements it, but the interface stays separate from
// Algorithm so external or test implementations need not.
type Instrumenter interface {
	Instrument(reg *telemetry.Registry)
}

// algTel is the telemetry bundle shared by all rate-control algorithms —
// class-level names, so a comparison run reads one set of totals per role:
//
//	alg.fair_share_updates  fair-share estimate recomputations
//	                        (MACR folds, ERS/ERICA ticks, max-min fills)
//	alg.feedback_marks      backward RM cells actually marked (ER reduced,
//	                        CI or NI set)
//	alg.state_changes       congestion-state transitions (threshold or
//	                        derivative detectors flipping)
//
// Handles are inert without a registry, so hooks bump them unconditionally.
type algTel struct {
	updates telemetry.Counter
	marks   telemetry.Counter
	states  telemetry.Counter
}

func (t *algTel) instrument(reg *telemetry.Registry) {
	t.updates = reg.Counter("alg.fair_share_updates")
	t.marks = reg.Counter("alg.feedback_marks")
	t.states = reg.Counter("alg.state_changes")
}

// None is the nil-algorithm Factory for ports that apply no rate control
// (plain FIFO forwarding). Scenario builders treat a factory that returns
// nil exactly like a nil Factory, so passing None is equivalent to leaving
// a config's Alg unset — but it lets call sites that select a Factory by
// name (the simconfig "alg none" directive) stay total instead of
// special-casing nil.
var None Factory = func() Algorithm { return nil }

// minF returns the smaller of two float64s without pulling in math.Min's
// NaN semantics on the hot path.
func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
