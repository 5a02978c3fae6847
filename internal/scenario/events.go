package scenario

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/atmnet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TransientKind names a scheduled mid-run perturbation.
type TransientKind string

const (
	// TransientRate changes a trunk's line rate (Value is the new rate in
	// bits/s, applied to both directions). It models capacity cuts and
	// restorations — the "graceful behavior under transients" stress of the
	// paper's Section 5 discussion.
	TransientRate TransientKind = "rate"
	// TransientLoss sets a trunk's random cell-loss rate (Value in [0,1),
	// both directions), turning a clean line noisy mid-run.
	TransientLoss TransientKind = "loss"
)

// TransientEvent is one scheduled perturbation of a running scenario. Index
// is the edge index (the trunk index, 0..Switches−2, of a chain). Events
// apply to both directions of the trunk, matching the TrunkLossRate
// semantics.
type TransientEvent struct {
	At    sim.Duration
	Kind  TransientKind
	Index int
	// Value is the new rate in bits/s (TransientRate) or the loss fraction
	// in [0,1) (TransientLoss).
	Value float64
}

// validateEvents checks a schedule against the number of trunks/edges.
func validateEvents(events []TransientEvent, nLinks int) error {
	for i, ev := range events {
		if ev.At < 0 {
			return fmt.Errorf("scenario: event %d at negative time %v", i, ev.At)
		}
		if ev.Index < 0 || ev.Index >= nLinks {
			return fmt.Errorf("scenario: event %d targets link %d of %d", i, ev.Index, nLinks)
		}
		switch ev.Kind {
		case TransientRate:
			if ev.Value <= 0 {
				return fmt.Errorf("scenario: event %d sets non-positive rate %v", i, ev.Value)
			}
		case TransientLoss:
			if ev.Value < 0 || ev.Value >= 1 {
				return fmt.Errorf("scenario: event %d sets loss %v outside [0,1)", i, ev.Value)
			}
		default:
			return fmt.Errorf("scenario: event %d has unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// applyTransient mutates one link per the event.
func applyTransient(l *atmnet.Link, ev TransientEvent) {
	switch ev.Kind {
	case TransientRate:
		l.RateCPS = atm.CPS(ev.Value)
	case TransientLoss:
		l.LossRate = ev.Value
	}
}

// scheduleEvents installs the transient schedule over the directed links
// (2k and 2k+1 are edge k's two halves). When both halves share an engine —
// always true unsharded — one event on it mutates both; a cut edge gets one
// event per shard, each applied by the engine that owns that half. The
// trace record comes from the U→V half's shard.
func scheduleEvents(events []TransientEvent, edges []GraphEdge, links []*atmnet.Link, plan *shardPlan) {
	for _, ev := range events {
		ed := edges[ev.Index]
		fl, rl := links[2*ev.Index], links[2*ev.Index+1]
		fwdEng, revEng := plan.engineFor(ed.U), plan.engineFor(ed.V)
		fwd := &pendingTransient{ev: ev, l: fl, tr: plan.traceFor(ed.U)}
		if revEng == fwdEng {
			fwd.also = rl
		}
		fwdEng.AtFunc(sim.Time(ev.At), fireTransient, sim.Payload{Obj: fwd})
		if revEng != fwdEng {
			revEng.AtFunc(sim.Time(ev.At), fireTransient, sim.Payload{Obj: &pendingTransient{ev: ev, l: rl}})
		}
	}
}

// pendingTransient is one engine's share of a scheduled TransientEvent: it
// applies to l, and to also when the edge's other half shares the engine,
// and is recorded on tr when tr is set.
type pendingTransient struct {
	ev   TransientEvent
	l    *atmnet.Link
	also *atmnet.Link
	tr   *trace.Tracer
}

// fireTransient applies the pendingTransient in p.Obj.
func fireTransient(e *sim.Engine, p sim.Payload) {
	pt := p.Obj.(*pendingTransient)
	applyTransient(pt.l, pt.ev)
	if pt.also != nil {
		applyTransient(pt.also, pt.ev)
	}
	if pt.tr != nil {
		pt.tr.Emit(e.Now(), pt.l.Name, "transient",
			trace.S("kind", string(pt.ev.Kind)), trace.F("value", pt.ev.Value))
	}
}
