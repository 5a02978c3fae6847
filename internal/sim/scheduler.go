package sim

import "fmt"

// scheduler is the pending-event priority queue behind an Engine. It owns
// the calendar data structure and nothing else: the engine keeps the clock,
// the sequence counter and the event-cell pool, and every backend must hand
// events back in exactly (time, seq) order — the determinism contract that
// makes runs bit-for-bit reproducible.
//
// Engines run on the heap (heap.go). The wheel (wheel.go) honors the same
// contract and is kept only as the heap's differential oracle and as a
// rung of the benchmark's ladder (see SchedulerKind).
type scheduler interface {
	// Len returns the number of pending events, including cancelled events
	// that have not yet been discarded.
	Len() int

	// schedule inserts ev. The engine guarantees ev.at is never before the
	// time of the last event handed out by pop.
	schedule(ev *event)
	// pop removes and returns the earliest pending event by (time, seq), or
	// returns nil — removing nothing — when the calendar is empty or the
	// earliest event orders strictly after the key (bound, boundSeq). The
	// run loop bounds by its deadline with the largest seq, or by the
	// timer heap's root when that is due first. A nil return must leave
	// the structure able to accept events at or after the engine's clock:
	// RunUntil stops at a deadline and callers schedule between it and the
	// next pending event.
	pop(bound Time, boundSeq uint64) *event
}

// SchedulerKind names a calendar backend for WithScheduler. It, its two
// values and WithScheduler are exported for two reasons only: the sim tests
// and FuzzSchedulerOrder run every engine behavior on the wheel as well, as
// a differential oracle for the heap, and the benchmark's ladder (bench/)
// times both. Nothing above this package chooses a backend.
type SchedulerKind string

const (
	// SchedulerHeap is the binary min-heap of (time, seq, cell) value
	// entries: O(log n) operations, the calendar every engine runs on.
	SchedulerHeap SchedulerKind = "heap"
	// SchedulerWheel is the hierarchical timer wheel: near-O(1) scheduling
	// keyed by the bits of the event time, same (time, seq) order.
	SchedulerWheel SchedulerKind = "wheel"
)

// WithScheduler selects the calendar backend: SchedulerHeap, which is what
// NewEngine uses without it, or SchedulerWheel. Both honor the exact (time,
// seq) ordering contract, so a run is bit-identical under either; they
// differ only in cost. Unknown kinds panic.
func WithScheduler(kind SchedulerKind) Option {
	if kind != SchedulerHeap && kind != SchedulerWheel {
		panic(fmt.Sprintf("sim: unknown scheduler %q (have: heap, wheel)", kind))
	}
	return func(e *Engine) {
		if kind == SchedulerWheel {
			e.sched = newWheelScheduler()
		}
	}
}
