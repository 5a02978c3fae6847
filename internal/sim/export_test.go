package sim

import (
	"math"
	"reflect"
)

// backends are the calendars the tests sweep: every engine behavior must
// hold on the wheel too, the heap's differential oracle.
var backends = []SchedulerKind{SchedulerHeap, SchedulerWheel}

// call runs the func(*Engine) in p.Obj: a test's one-off event.
func call(e *Engine, p Payload) { p.Obj.(func(*Engine))(e) }

// maxTime is the end of simulated time; Run uses it as its deadline.
const maxTime = Time(math.MaxInt64)

// Run executes every remaining event.
func (e *Engine) Run() uint64 { return e.runTo(maxTime) }

// Pending returns the number of entries in the calendar and the timer heap,
// including ones the run loop will discard when it reaches them: cancelled
// events, and the cell a stopped or re-armed Timer left behind (timer.go);
// the events waiting in bands behind their heads (band.go) — an Every's
// ticks among them — count as the entries they stand for.
func (e *Engine) Pending() int { return e.sched.Len() + e.timers.Len() + bandQueued(e) }

// bandQueued counts the events waiting in e's bands behind their heads:
// pending, but not in the calendar. A band's head is filed exactly while
// its queue is non-empty.
func bandQueued(e *Engine) int {
	n := 0
	for _, b := range e.bands {
		n += max(b.q.Len()-1, 0)
	}
	return n
}

// CalendarCensus counts e's pending entries and how many of them are live:
// not a cancelled event's cell, nor a cell a stopped or re-armed timer left
// behind. A test helper — it walks the whole calendar and the timer heap —
// for the tests that hold Pending and Canceled to what their comments say.
func CalendarCensus(e *Engine) (entries, live int) {
	count := func(ev *event) {
		entries++
		if isLive(ev) {
			live++
		}
	}
	walkCalendar(e, count)
	for _, x := range e.timers.q {
		count(x.ev)
	}
	return entries + bandQueued(e), live + bandQueued(e)
}

// isLive reports whether the popped cell will be an event.
func isLive(ev *event) bool {
	switch ev.kind {
	case cellCanceled:
		return false
	case cellTimer:
		t := ev.payload.Obj.(*Timer)
		return t.cell == ev && t.armed
	}
	return true
}

// walkCalendar calls f on every cell in e's calendar, the timer heap apart.
func walkCalendar(e *Engine, f func(*event)) {
	switch s := e.sched.(type) {
	case *heapScheduler:
		for _, x := range s.q[s.hole:] {
			f(x.ev)
		}
	case *wheelScheduler:
		for l := range s.slots {
			for _, ev := range s.slots[l] {
				for ; ev != nil; ev = ev.next {
					f(ev)
				}
			}
		}
	}
}

// FilingCensus says where an engine files its long-lived events.
type FilingCensus struct {
	// TimerCells counts the calendar's timer cells.
	TimerCells int
	// BandTicks counts the ticks queued in bands, heads included.
	BandTicks int
	// ArmedInHeap counts the timer heap's cells that are an armed timer's
	// tracked cell.
	ArmedInHeap int
	// LiveElsewhere counts the live entries outside the timer heap: in the
	// calendar and queued in bands.
	LiveElsewhere int
}

// Filing walks e's calendar, bands and timer heap for a FilingCensus.
func Filing(e *Engine) FilingCensus {
	var c FilingCensus
	walkCalendar(e, func(ev *event) {
		if ev.kind == cellTimer {
			c.TimerCells++
		}
		if isLive(ev) {
			c.LiveElsewhere++
		}
	})
	c.LiveElsewhere += bandQueued(e)
	tick := reflect.ValueOf(tickerFire).Pointer()
	for _, b := range e.bands {
		// One lap of the band's ring: its order, and so the head's key,
		// come back unchanged.
		for range b.q.Len() {
			x := b.q.Pop()
			if reflect.ValueOf(x.fn).Pointer() == tick {
				c.BandTicks++
			}
			b.q.Push(x)
		}
	}
	for _, x := range e.timers.q {
		if x.ev.kind == cellTimer && isLive(x.ev) {
			c.ArmedInHeap++
		}
	}
	return c
}

// BandCensus returns how many bands e has made and how many events wait in
// them behind their heads, outside the calendar.
func BandCensus(e *Engine) (bands, queued int) { return len(e.bands), bandQueued(e) }
