package sim

import "fmt"

// Scheduler is the pending-event priority queue behind an Engine. It owns
// the calendar data structure and nothing else: the engine keeps the clock,
// the sequence counter and the event-cell pool, and every backend must hand
// events back in exactly (time, seq) order — the determinism contract that
// makes runs bit-for-bit reproducible regardless of backend.
//
// The interface is sealed (its mutating methods are unexported) because a
// scheduler manipulates the engine's pooled event cells directly; the two
// implementations live in this package and are selected with WithScheduler.
type Scheduler interface {
	// Name identifies the backend for reports and benchmarks.
	Name() string
	// Len returns the number of pending events, including cancelled events
	// that have not yet been discarded.
	Len() int

	// schedule inserts ev. The engine guarantees ev.at is never before the
	// time of the last event handed out by pop.
	schedule(ev *event)
	// pop removes and returns the earliest pending event by (time, seq), or
	// returns nil — removing nothing — when the calendar is empty or the
	// earliest event lies strictly beyond bound. A nil return must leave
	// the structure able to accept events at or before bound: RunUntil
	// stops at a deadline and callers schedule between it and the next
	// pending event.
	pop(bound Time) *event
}

// SchedulerKind names a scheduler backend for configuration surfaces
// (flags, scenario configs, experiment options). The zero value selects the
// default backend.
type SchedulerKind string

const (
	// SchedulerDefault is the zero value: the engine picks the default
	// backend (currently the binary heap).
	SchedulerDefault SchedulerKind = ""
	// SchedulerHeap is the binary min-heap of (time, seq, cell) value
	// entries: O(log n) operations, the reference for the determinism
	// contract.
	SchedulerHeap SchedulerKind = "heap"
	// SchedulerWheel is the hierarchical timer wheel: near-O(1) scheduling
	// keyed by the bits of the event time, same (time, seq) order.
	SchedulerWheel SchedulerKind = "wheel"
)

// SchedulerKinds lists the selectable backends, for -scheduler flag help
// and for tests that sweep every backend.
func SchedulerKinds() []SchedulerKind {
	return []SchedulerKind{SchedulerHeap, SchedulerWheel}
}

// ParseScheduler validates a backend name from a flag or config file. The
// empty string selects the default backend.
func ParseScheduler(name string) (SchedulerKind, error) {
	switch k := SchedulerKind(name); k {
	case SchedulerDefault:
		return SchedulerHeap, nil
	case SchedulerHeap, SchedulerWheel:
		return k, nil
	default:
		return "", fmt.Errorf("sim: unknown scheduler %q (have: heap, wheel)", name)
	}
}

// newScheduler instantiates the backend for k.
func newScheduler(k SchedulerKind) (Scheduler, error) {
	switch k {
	case SchedulerDefault, SchedulerHeap:
		return newHeapScheduler(), nil
	case SchedulerWheel:
		return newWheelScheduler(), nil
	default:
		return nil, fmt.Errorf("sim: unknown scheduler %q (have: heap, wheel)", k)
	}
}
