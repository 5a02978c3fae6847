package sim

import (
	"fmt"

	"repro/internal/ring"
)

// bandEntry is one event waiting in a band: its key, handler and object.
type bandEntry struct {
	at  Time
	seq uint64
	fn  TypedHandler
	obj any
}

// Band is the engine's FIFO of every event scheduled one constant delay
// ahead — a cell time at some line rate, a trunk's propagation delay, the
// period of an Every — shared by all the components that use that delay,
// whatever their handlers. Only its head occupies a calendar slot, so a
// thousand links with a cell in flight each cost the calendar one entry per
// distinct delay.
//
// A band changes nothing an observer can see, counters included (DESIGN.md
// §8). After draws seq from the engine's counter exactly as AfterFunc does;
// the clock never goes back and the delay is constant, so every entry behind
// the head is strictly greater than it in (time, seq): the head, filed under
// its true key, is the band's minimum, and the calendar pops the sequence it
// would with every event filed. The price: band events cannot be cancelled,
// and only a delay that is a constant of the component belongs on one — a
// band per packet size or per source rate is a map lookup per event and a
// ring per value. A band follows its engine's single-goroutine contract.
type Band struct {
	e *Engine
	d Duration
	// ev is the band's permanent cell, never pooled: keyed to the head entry
	// and filed exactly while q is non-empty.
	ev event
	q  ring.Ring[bandEntry]
}

// Band returns the engine's band for events d from now. It is a map lookup:
// components keep the band and ask again only when their delay changes.
func (e *Engine) Band(d Duration) *Band {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative band delay %v", d))
	}
	b := e.bands[d]
	if b == nil {
		if e.bands == nil {
			e.bands = make(map[Duration]*Band)
		}
		b = &Band{e: e, d: d}
		b.ev.kind, b.ev.band = cellBand, b
		e.bands[d] = b
	}
	return b
}

// Delay returns the constant every event of the band is scheduled ahead by.
func (b *Band) Delay() Duration { return b.d }

// After schedules fn(e, Payload{Obj: obj}) to run Delay from now: AfterFunc
// for a delay that never varies.
func (b *Band) After(fn TypedHandler, obj any) {
	if fn == nil {
		panic("sim: nil handler")
	}
	e := b.e
	t := e.now.Add(b.d)
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if b.q.Len() == 0 {
		b.ev.at, b.ev.seq = t, e.seq
		e.sched.schedule(&b.ev)
	}
	x := b.q.PushSlot()
	x.at, x.seq, x.fn, x.obj = t, e.seq, fn, obj
	e.seq++
}

// fire runs when the calendar pops the band's cell. The next entry's key is
// filed before the handler runs, so on the heap it lands in the root the pop
// just vacated and — being the next event of its kind in the whole network —
// stays there or sinks a level; the handler's own schedules enter below.
func (b *Band) fire(e *Engine) {
	x := b.q.Pop()
	if b.q.Len() > 0 {
		next := b.q.Peek()
		b.ev.at, b.ev.seq = next.at, next.seq
		e.sched.schedule(&b.ev)
	}
	x.fn(e, Payload{Obj: x.obj})
}
