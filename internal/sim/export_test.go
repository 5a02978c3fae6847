package sim

// backends are the calendars the tests sweep: every engine behavior must
// hold on the wheel too, the heap's differential oracle.
var backends = []SchedulerKind{SchedulerHeap, SchedulerWheel}

// CalendarCensus counts e's pending entries and how many of them are live:
// not a cancelled event's cell, nor a cell a stopped or re-armed timer left
// behind. A test helper — it walks the whole calendar — for the tests that
// hold Pending and Canceled to what their comments say.
func CalendarCensus(e *Engine) (entries, live int) {
	count := func(ev *event) {
		entries++
		switch ev.kind {
		case cellCanceled:
		case cellTimer:
			if t := ev.payload.Obj.(*Timer); t.cell == ev && t.armed {
				live++
			}
		default:
			live++
		}
	}
	switch s := e.sched.(type) {
	case *heapScheduler:
		for _, x := range s.q[s.hole:] {
			count(x.ev)
		}
	case *wheelScheduler:
		for l := range s.slots {
			for _, ev := range s.slots[l] {
				for ; ev != nil; ev = ev.next {
					count(ev)
				}
			}
		}
	}
	return entries + e.bandQueued, live + e.bandQueued
}

// BandCensus returns how many bands e has made and how many events wait in
// them behind their heads, outside the calendar.
func BandCensus(e *Engine) (bands, queued int) { return len(e.bands), e.bandQueued }
