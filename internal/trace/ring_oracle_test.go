package trace

import "repro/internal/sim"

// fixedRing is the flight recorder as it was before its storage grew with
// the events recorded: the whole capacity allocated up front. It survives
// only as FuzzTracer's oracle.
type fixedRing struct {
	ring []Event
	next int
	full bool
	seen int64
}

func newFixedRing(capacity int) *fixedRing {
	return &fixedRing{ring: make([]Event, capacity)}
}

func (r *fixedRing) Emit(t sim.Time, component, kind string, fields ...Field) {
	r.ring[r.next] = NewEvent(t, component, kind, fields...)
	r.next++
	r.seen++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
}

func (r *fixedRing) Reset() {
	clear(r.ring)
	r.next, r.full, r.seen = 0, false, 0
}

func (r *fixedRing) Cap() int { return len(r.ring) }

func (r *fixedRing) Seen() int64 { return r.seen }

func (r *fixedRing) Len() int {
	if r.full {
		return len(r.ring)
	}
	return r.next
}

func (r *fixedRing) Retained() (older, newer []Event) {
	if !r.full {
		return r.ring[:r.next], nil
	}
	return r.ring[r.next:], r.ring[:r.next]
}

func (r *fixedRing) Events() []Event {
	older, newer := r.Retained()
	return append(append([]Event{}, older...), newer...)
}
