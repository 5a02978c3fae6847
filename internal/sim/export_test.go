package sim

import "reflect"

// backends are the calendars the tests sweep: every engine behavior must
// hold on the wheel too, the heap's differential oracle.
var backends = []SchedulerKind{SchedulerHeap, SchedulerWheel}

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
	return entries + e.bandQueued, live + e.bandQueued
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
	c.LiveElsewhere += e.bandQueued
	tick := reflect.ValueOf(tickerFire).Pointer()
	for _, b := range e.bands {
		for i := range b.q.Len() {
			if reflect.ValueOf(b.q.At(i).fn).Pointer() == tick {
				c.BandTicks++
			}
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
func BandCensus(e *Engine) (bands, queued int) { return len(e.bands), e.bandQueued }
