package sim

import (
	"fmt"
	"math"
)

// Payload is the small value argument carried inside a pooled event cell.
// Every event is a fixed, named TypedHandler plus a Payload, so nothing is
// allocated per event and every handler has a name: the component passes a
// package-level handler and itself (and any in-flight object) through the
// payload.
//
// Obj holds a pointer-shaped value (a component pointer, a packet);
// storing a pointer in an interface does not allocate. I and F are scalar
// slots for counts, sequence numbers or rates. The whole struct is copied
// into the event cell by value.
type Payload struct {
	Obj any
	I   int64
	F   float64
}

// TypedHandler is what an event runs: a fixed function (package-level, or
// stored once per component) that receives the engine, so it can schedule
// follow-ups, and the payload stashed in the event cell. Scheduling one
// allocates nothing once the engine's event-cell pool is warm.
type TypedHandler func(e *Engine, p Payload)

// event is a scheduled callback. seq breaks ties between events scheduled
// for the same instant: earlier-scheduled events fire first, which is what
// makes runs deterministic. Cells are pooled per engine: after an event
// fires (or a cancelled event is drained) its cell goes back on the free
// list and gen is bumped so outstanding EventRefs go stale instead of
// touching the cell's next occupant.
//
// fn runs with payload as its argument. A timer's cell (timer.go) has no fn:
// its payload.Obj is the *Timer.
type event struct {
	at      Time
	seq     uint64
	gen     uint64
	fn      TypedHandler
	payload Payload
	kind    cellKind
	next    *event // intrusive slot-list link in the wheel backend
	band    *Band  // set only on a band's permanent cell (band.go)
}

// cellKind says what the run loop does with a popped cell. The kinds
// exclude one another — only a plain cell is ever behind an EventRef, so
// only a plain cell is ever cancelled — which lets the loop send every
// plain event down its fast path on one compare.
type cellKind uint8

const (
	cellPlain    cellKind = iota // fire fn, recycle
	cellCanceled                 // a plain cell after EventRef.Cancel: discard
	cellBand                     // a band's permanent cell (band.go)
	cellTimer                    // a timer's tracked cell (timer.go)
)

// EventRef identifies a scheduled event so it can be cancelled. The zero
// value is inert: cancelling it is a no-op. A ref expires when its event
// fires (or a cancelled cell is drained): cancelling an expired ref is a
// no-op even though the engine may have recycled the underlying cell for a
// later event.
type EventRef struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event (or, for a ticker from Every, all future ticks)
// from firing. Cancelling twice, cancelling a zero ref, or cancelling after
// the event already fired is a harmless no-op. It reports whether this call
// transitioned the event to cancelled.
func (r EventRef) Cancel() bool {
	if r.ev == nil || r.ev.gen != r.gen || r.ev.kind == cellCanceled {
		return false
	}
	r.ev.kind = cellCanceled
	return true
}

// Option configures an Engine at construction.
type Option func(e *Engine)

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; simulations are deterministic precisely because all state
// transitions happen on one goroutine in event order.
//
// The concurrency contract is one-engine-per-goroutine: an Engine and
// everything scheduled on it must be driven by a single goroutine for the
// engine's whole lifetime. Engines share no state — the event-cell pool is
// per engine for exactly this reason — so any number of them may run in
// parallel on different goroutines (the fleet runner in internal/runner
// runs one experiment — and therefore one engine — per worker). What is
// forbidden is two goroutines touching the same engine: there is
// deliberately no internal locking, because a lock would serialize the hot
// path every experiment spends all its time in and would still not make
// interleaved event execution meaningful. RunUntil enforces the
// reentrant half of the contract by panicking when called while a run is
// already in progress on the same engine; the cross-goroutine half is left
// to the race detector, which CI runs on every test.
type Engine struct {
	now      Time
	sched    scheduler
	seq      uint64
	fired    uint64
	canceled uint64
	stopped  bool
	running  bool
	// free is the event-cell pool. Scheduling pops a cell, firing (or
	// draining a cancelled event) pushes it back, so the AtFunc/AfterFunc
	// hot path stops allocating once the pool warms to the peak number of
	// simultaneously pending events.
	free []*event
	// bands holds the engine's band for each delay asked for (band.go).
	bands map[Duration]*Band
	// Pads the fields above to two cache lines. With the timer heap the
	// struct is three, which is also an allocator size class, so an engine
	// shares no line with the object next to it. The engines of a sharded
	// run are allocated back to back and written on every event by
	// different cores (DESIGN.md §14).
	_ [40]byte
	// timers holds every timer cell (timer.go), apart from the calendar:
	// they are long-lived and rarely due, and every other event would sift
	// past them. Its pops are eager, so it never has a root hole.
	timers heapScheduler
}

// NewEngine returns an engine with the clock at zero and an empty calendar,
// which is a heap (heap.go) unless an option says otherwise. Timer cells
// always go to the engine's separate timer heap, whichever the calendar.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{}
	for _, opt := range opts {
		opt(e)
	}
	if e.sched == nil {
		e.sched = newHeapScheduler()
	}
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far. Useful for cost
// accounting in benchmarks.
func (e *Engine) Fired() uint64 { return e.fired }

// Scheduled returns the number of events ever scheduled on this engine
// (seq counts every schedule, fired or not).
func (e *Engine) Scheduled() uint64 { return e.seq }

// Canceled returns the number of scheduled events that will never fire. A
// Timer's arming is counted the moment Stop or a later Reset supersedes it,
// so on a run whose only cancellations are timers
//
//	Scheduled() == Fired() + Canceled() + (live pending events)
//
// holds at every instant. An event cancelled through its EventRef is counted
// when the run loop drains its cell: the ref does not know its engine.
func (e *Engine) Canceled() uint64 { return e.canceled }

// alloc takes a cell from the pool, or makes one when the pool is dry.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return new(event)
}

// recycle expires outstanding refs to ev and returns its cell to the pool.
// The payload is cleared so the pool does not pin components or packets
// beyond the event's lifetime.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.payload = Payload{}
	ev.kind = cellPlain
	ev.next = nil
	e.free = append(e.free, ev)
}

// AtFunc schedules fn(e, p) to run at absolute time t. p is stored by value
// in a pooled event cell, so scheduling allocates nothing once the pool is
// warm. Scheduling in the past panics: it is always a logic error in an
// event-driven model, and silently clamping would mask causality bugs.
func (e *Engine) AtFunc(t Time, fn TypedHandler, p Payload) EventRef {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil handler")
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.fn, ev.payload = t, e.seq, fn, p
	e.seq++
	e.sched.schedule(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// AfterFunc schedules fn(e, p) to run d from now. Negative delays panic via
// AtFunc.
func (e *Engine) AfterFunc(d Duration, fn TypedHandler, p Payload) EventRef {
	return e.AtFunc(e.now.Add(d), fn, p)
}

// Every schedules fn(e, p) to run every period, starting one period from
// now, until the returned ref is cancelled or the run ends. fn observes the
// engine clock at each tick. A period is a constant of its ticker, so the
// ticks ride the engine's band for it (band.go): a thousand tickers with one
// period are one calendar entry. A tick after a cancel still fires, as a
// no-op.
func (e *Engine) Every(period Duration, fn TypedHandler, p Payload) EventRef {
	if period <= 0 {
		panic("sim: non-positive period")
	}
	if fn == nil {
		panic("sim: nil handler")
	}
	tk := &ticker{fn: fn, p: p, band: e.Band(period)}
	tk.band.After(tickerFire, tk)
	return EventRef{ev: &tk.cell, gen: tk.cell.gen}
}

// ticker is an Every: the band entry each tick files carries it.
type ticker struct {
	fn   TypedHandler
	p    Payload
	band *Band
	// cell is what the ref from Every points at, so Cancel stops all future
	// ticks, not just the next one. It never enters the calendar.
	cell event
}

// tickerFire is a tick. It re-arms only after fn, so fn's own schedules draw
// their seqs first, and not when fn or an earlier event cancelled it.
func tickerFire(e *Engine, p Payload) {
	tk := p.Obj.(*ticker)
	if tk.cell.kind == cellCanceled {
		return
	}
	tk.fn(e, tk.p)
	if tk.cell.kind == cellCanceled {
		return
	}
	tk.band.After(tickerFire, tk)
}

// Stop halts the run after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// enter marks the engine as running; calling RunUntil while a run is
// already in progress (from an event handler, or from a second goroutine that
// happens to be caught by this flag before the race detector sees it) is a
// contract violation, never a recoverable condition, so it panics.
func (e *Engine) enter() {
	if e.running {
		panic("sim: Run/RunUntil re-entered — engines are single-goroutine and non-reentrant")
	}
	e.running = true
}

func (e *Engine) leave() { e.running = false }

// runTo is the shared event loop: execute events in (time, seq) order until
// neither the calendar nor the timer heap holds anything at or before
// deadline, or Stop is called. A due timer root bounds the calendar's pop by
// its key; keys are unique, so a nil pop under that bound means the timer
// root is next.
func (e *Engine) runTo(deadline Time) uint64 {
	e.enter()
	defer e.leave()
	start := e.fired
	e.stopped = false
	for !e.stopped {
		bound, boundSeq := deadline, uint64(math.MaxUint64)
		tq := e.timers.q
		timerDue := len(tq) > 0 && tq[0].at <= deadline
		if timerDue {
			bound, boundSeq = tq[0].at, tq[0].seq
		}
		ev := e.sched.pop(bound, boundSeq)
		if ev == nil {
			if !timerDue {
				break
			}
			ev = e.timers.popRoot()
		}
		if k := ev.kind; k != cellPlain {
			switch k {
			case cellBand:
				e.now = ev.at
				e.fired++
				ev.band.fire(e)
			case cellTimer:
				e.popTimer(ev)
			default:
				e.canceled++
				e.recycle(ev)
			}
			continue
		}
		e.now = ev.at
		e.fired++
		fn, pl := ev.fn, ev.payload
		// Recycle before firing: the handler is the cell's last user, and
		// returning it first lets fn's own follow-up schedule reuse it.
		e.recycle(ev)
		fn(e, pl)
	}
	return e.fired - start
}

// RunUntil executes events in order until the calendar empties, Stop is
// called, or the next event lies beyond deadline. The clock finishes exactly
// at deadline unless Stop cut the run short — events may then still be
// pending before the deadline, and jumping past them would make the next
// run fire them with the clock going backwards — so successive RunUntil
// calls compose. It returns the number of events fired by this call.
func (e *Engine) RunUntil(deadline Time) uint64 {
	n := e.runTo(deadline)
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return n
}
