package scengen

import (
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simconfig"
)

type eventSlice = []scenario.TransientEvent

// Minimize shrinks a failing scenario while it keeps failing the same way:
// the result is the smallest spec this greedy pass finds that still
// triggers a violation with the given name. Every candidate is renormalized
// through Emit→Parse, so anything duration-coupled (randonoff schedules are
// generated over the horizon) is rebuilt exactly the way a frozen regression
// file will rebuild it when replayed.
//
// The pass order drops the biggest structure first: sessions one at a time,
// then transient events, then graph edges, then halving the duration. Each
// pass restarts whenever a removal sticks, and the whole sequence repeats
// until a full sweep removes nothing.
func Minimize(spec *simconfig.Spec, violation string) *simconfig.Spec {
	cur := renormalize(spec)
	if cur == nil || !failsWith(cur, violation) {
		return spec
	}
	for {
		shrunk := false
		// Sessions, last first so indices stay stable while dropping.
		for i := len(cur.Config.Sessions) - 1; i >= 0; i-- {
			if cand := renormalize(dropSession(cur, i)); cand != nil && failsWith(cand, violation) {
				cur, shrunk = cand, true
			}
		}
		for i := len(cur.Config.Events) - 1; i >= 0; i-- {
			if cand := renormalize(dropEvent(cur, i)); cand != nil && failsWith(cand, violation) {
				cur, shrunk = cand, true
			}
		}
		for i := len(cur.Config.Edges) - 1; i >= 0; i-- {
			if cand := renormalize(dropEdge(cur, i)); cand != nil && failsWith(cand, violation) {
				cur, shrunk = cand, true
			}
		}
		if half := cur.Duration / 2; half >= 10*sim.Millisecond {
			cand := clone(cur)
			cand.Duration = half
			if cand = renormalize(cand); cand != nil && failsWith(cand, violation) {
				cur, shrunk = cand, true
			}
		}
		if !shrunk {
			return cur
		}
	}
}

// failsWith runs the spec and reports whether the named violation appears.
func failsWith(spec *simconfig.Spec, violation string) bool {
	o, err := RunSpec(spec)
	if err != nil {
		return false
	}
	return HoldsFor(Check(o), violation)
}

// renormalize round-trips a spec through its canonical text, returning nil
// when the candidate is no longer a valid spec (e.g. the last session was
// dropped). This rebuilds duration-coupled patterns and guarantees the
// candidate is exactly what its frozen file would replay as.
func renormalize(spec *simconfig.Spec) *simconfig.Spec {
	text, err := simconfig.Emit(spec)
	if err != nil {
		return nil
	}
	out, err := simconfig.Parse(strings.NewReader(text))
	if err != nil {
		return nil
	}
	return out
}

// clone deep-copies the mutable slices of a spec so candidates never alias.
func clone(spec *simconfig.Spec) *simconfig.Spec {
	out := *spec
	out.Config.Edges = append([]scenario.GraphEdge(nil), spec.Config.Edges...)
	out.Config.Events = append(eventSlice(nil), spec.Config.Events...)
	out.Config.Sessions = append([]scenario.GraphSessionSpec(nil), spec.Config.Sessions...)
	return &out
}

func dropSession(spec *simconfig.Spec, i int) *simconfig.Spec {
	out := clone(spec)
	out.Config.Sessions = append(out.Config.Sessions[:i:i], out.Config.Sessions[i+1:]...)
	return out
}

func dropEvent(spec *simconfig.Spec, i int) *simconfig.Spec {
	out := clone(spec)
	out.Config.Events = append(out.Config.Events[:i:i], out.Config.Events[i+1:]...)
	return out
}

func dropEdge(spec *simconfig.Spec, i int) *simconfig.Spec {
	out := clone(spec)
	out.Config.Edges = append(out.Config.Edges[:i:i], out.Config.Edges[i+1:]...)
	// Events index edges; dropping edge i invalidates the schedule, so
	// retarget or drop the affected events.
	var keep eventSlice
	for _, ev := range out.Config.Events {
		switch {
		case ev.Index < i:
			keep = append(keep, ev)
		case ev.Index > i:
			ev.Index--
			keep = append(keep, ev)
		}
	}
	out.Config.Events = keep
	return out
}
