package sim

import "fmt"

// Timer is a one-shot event that is re-armed in place — a retransmission
// timer restarted by every ACK, say. Reset and Stop cost the timer heap
// nothing while the timer already has a cell filed at or before its new
// deadline: the deadline is recorded in the timer, and the run loop moves
// the cell up to it when the cell's own, earlier, key comes round.
//
// A timer changes nothing an observer can see against the spelling it
// replaces: cancel the old EventRef, keep the one a new AfterFunc returns.
// Reset draws seq from the engine's counter exactly as AfterFunc does and the
// timer fires under that (time, seq); Fired and Scheduled count as they
// would. What differs: Canceled counts a superseded arming at once, and
// fewer dead entries are left pending.
//
// The tracked-cell invariant: an armed timer has exactly one tracked cell in
// the engine's timer heap, keyed at or before the timer's (at, seq); a
// stopped timer has one or none. Every other cell that names the timer is an
// orphan and is discarded when popped. Timer cells live in that heap and
// never in the calendar, so the events that fire sift past none of them.
//
// A timer belongs to the engine that made it and follows that engine's
// single-goroutine contract.
type Timer struct {
	e  *Engine
	fn TypedHandler
	p  Payload
	// (at, seq) is the key the timer fires under while armed.
	at    Time
	seq   uint64
	armed bool
	// cell is the tracked cell: a pooled cell of kind cellTimer whose
	// payload.Obj points back here. Nil when the timer has none filed.
	cell *event
}

// NewTimer returns a stopped timer that calls fn(e, p) when it fires.
func (e *Engine) NewTimer(fn TypedHandler, p Payload) *Timer {
	if fn == nil {
		panic("sim: nil handler")
	}
	return &Timer{e: e, fn: fn, p: p}
}

// Armed reports whether the timer is waiting to fire. It is false inside
// the timer's own handler.
func (t *Timer) Armed() bool { return t.armed }

// Stop disarms the timer; stopping a stopped timer is a no-op. The tracked
// cell stays filed for the next Reset to reuse.
func (t *Timer) Stop() {
	if t.armed {
		t.armed = false
		t.e.canceled++
	}
}

// Reset arms the timer to fire d from now, superseding any earlier arming.
// It panics if d is negative.
func (t *Timer) Reset(d Duration) {
	e := t.e
	if d < 0 {
		panic(fmt.Sprintf("sim: negative timer delay %v", d))
	}
	if t.armed {
		e.canceled++
	}
	t.at, t.seq, t.armed = e.now.Add(d), e.seq, true
	e.seq++
	if t.cell != nil && t.cell.at <= t.at {
		return
	}
	// No cell, or one filed after the new deadline — the RTO shrank. That
	// cell cannot be moved earlier where it sits, so it is orphaned (popTimer
	// knows it by t.cell pointing elsewhere) and a fresh one is filed.
	ev := e.alloc()
	ev.at, ev.seq, ev.kind, ev.payload.Obj = t.at, t.seq, cellTimer, t
	t.cell = ev
	e.timers.schedule(ev)
}

// popTimer runs when the run loop pops the timer heap. Only a tracked cell
// popped under its armed timer's current key is an event. Any other pop is
// calendar upkeep — it is not counted as fired and does not move the clock,
// which may still be behind the popped key.
func (e *Engine) popTimer(ev *event) {
	t := ev.payload.Obj.(*Timer)
	switch {
	case t.cell != ev:
		e.recycle(ev)
	case !t.armed:
		t.cell = nil
		e.recycle(ev)
	case ev.seq != t.seq:
		// Re-armed since the cell was filed: move it to the deadline. The
		// new key is past the popped one and usually past most of the timer
		// heap, so it sifts up from the tail a level or none.
		ev.at, ev.seq = t.at, t.seq
		e.timers.schedule(ev)
	default:
		t.cell, t.armed = nil, false
		e.now = ev.at
		e.fired++
		e.recycle(ev)
		t.fn(e, t.p)
	}
}
