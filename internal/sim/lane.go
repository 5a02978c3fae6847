package sim

import (
	"fmt"

	"repro/internal/ring"
)

// laneKey is the (time, seq) of a lane event waiting behind the lane's head.
type laneKey struct {
	at  Time
	seq uint64
}

// Lane is a FIFO of events that share one handler and whose fire times never
// decrease — the cells propagating down a link, say. Only the head of a lane
// occupies a calendar slot; the events behind it wait in the lane as bare
// keys, so a lane with a thousand events in flight costs the calendar one
// entry.
//
// A lane changes nothing an observer can see. After draws seq from the
// engine's counter exactly as AfterFunc does and the head is filed under its
// true (time, seq); every key queued behind it is strictly greater (time
// non-decreasing, seq increasing), so the head is the lane's minimum and the
// calendar pops the same sequence it would with every event filed. Fired,
// Scheduled and Pending count lane events like any other. The price is that
// lane events cannot be cancelled.
//
// A lane belongs to the engine that made it and follows that engine's
// single-goroutine contract.
type Lane struct {
	e *Engine
	// ev is the lane's permanent cell: re-keyed and refiled on every fire,
	// never taken from or returned to the engine's pool.
	ev   event
	keys ring.Ring[laneKey]
	// armed is set while ev is in the calendar.
	armed bool
	last  Time
}

// NewLane returns an empty lane whose events call fn(e, p).
func (e *Engine) NewLane(fn TypedHandler, p Payload) *Lane {
	if fn == nil {
		panic("sim: nil handler")
	}
	ln := &Lane{e: e}
	ln.ev.tfn, ln.ev.payload, ln.ev.kind, ln.ev.lane = fn, p, cellLane, ln
	return ln
}

// Last returns the fire time of the event most recently added, the floor for
// the next After.
func (ln *Lane) Last() Time { return ln.last }

// After adds an event d from now. It panics if d is negative or the event
// would fire before the one added last: the lane holds no order but arrival.
func (ln *Lane) After(d Duration) {
	e := ln.e
	if d < 0 {
		panic(fmt.Sprintf("sim: negative lane delay %v", d))
	}
	t := e.now.Add(d)
	if t < ln.last {
		panic(fmt.Sprintf("sim: lane event at %v before its predecessor at %v", t, ln.last))
	}
	ln.last = t
	seq := e.seq
	e.seq++
	if ln.armed {
		ln.keys.Push(laneKey{at: t, seq: seq})
		e.laneQueued++
		return
	}
	ln.armed = true
	ln.ev.at, ln.ev.seq = t, seq
	e.sched.schedule(&ln.ev)
}

// fire runs when the calendar pops the lane's cell. The next queued key goes
// back into the calendar before the handler runs, so on the heap it lands in
// the root the pop just vacated and sinks from there — a short trip, the
// lane's next event being near — and the handler's own, later, schedules
// enter at the bottom.
func (ln *Lane) fire(e *Engine) {
	if ln.keys.Len() > 0 {
		k := ln.keys.Pop()
		e.laneQueued--
		ln.ev.at, ln.ev.seq = k.at, k.seq
		e.sched.schedule(&ln.ev)
	} else {
		ln.armed = false
	}
	ln.ev.tfn(e, ln.ev.payload)
}
