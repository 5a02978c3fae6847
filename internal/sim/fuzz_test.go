package sim

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
)

// A fuzz program is a byte string read four bytes at a time — opcode, width,
// mantissa, arg — and decoded against a clock the decoder advances itself
// (every run op is resumed until it ends on its deadline), so the ops carry
// absolute times and replay identically on any calendar. The opcode's low
// three bits pick the op; on the scheduling ops its high five are a repeat
// count (1–32 events at the one instant), so a short input — cheap for the
// fuzzer to mutate and minimize — can still pile thousands of events onto
// one timestamp. arg tells an event what to do when it fires (fuzzState.fire).
const (
	fuzzSchedule   = iota // plain events at clock+delay
	fuzzParent            // events that schedule 0–3 children, at their own instant and later
	fuzzCancel            // cancel the (width<<8|mantissa)-th cancellable event, fired or not
	fuzzRunUntil          // RunUntil(clock+delay)
	fuzzStopper           // events that call Stop, most of them scheduling nothing first
	fuzzBandOp            // events on band width%fuzzBands, now; mantissa&1 picks the second handler
	fuzzBandParent        // events that put 1–2 events on a band
	fuzzTimer             // Reset/Stop timer arg%fuzzTimers, now or from an event at clock+delay
	fuzzEvery             // opcode 7 with bit 4 set: Every, now, maybe cancelled by an event at clock+delay
)

// A fuzzTimer op acts on timer arg&3 with deadline clock+delay, at once, or
// — opcode bit 3 set — from a 't' event that fires at clock+delay and takes
// its deadline 2^(arg>>4)−1 past that (so also at its own instant). arg's
// bits 2–3 pick the action; a timer's own handler does more (fuzzState.fire).
const (
	fuzzTimerReset      = iota // Reset
	fuzzTimerStop              // Stop
	fuzzTimerStopReset         // Stop, then Reset
	fuzzTimerResetTwice        // Reset twice to the one deadline
)

// A fuzzEvery op starts 1 + opcode>>5 tickers with one period, so they
// share its band, and — opcode bit 3 — a 'k' event apiece at clock+delay
// that cancels its ticker. arg is what each tick does (fuzzState.fire):
//
//	bit 0     the period: band 1's delay or band 2's (band 0's is no period)
//	bits 1–3  the tick that cancels its own ticker, less one
//	bit 4     a plain child a period later, tying with the next tick
//	bit 5     an event on the ticker's band, between its ticks
//	bit 6     cancel the next ticker started
//	bit 7     the self-cancel comes first, the tick's other work after it
//
// Every ticker cancels itself by its eighth tick, so the final Run ends.

// fuzzTickerCost is what one ticker can add to the calendar: its 'k' event
// and nine ticks — the last a no-op after a cancel — with a child and a
// band event apiece.
const fuzzTickerCost = 1 + 9*3

// fuzzTickPeriod is the period a ticker's arg picks.
func fuzzTickPeriod(arg byte) Duration { return fuzzBandDelay[1+arg&1] }

// fuzzMaxEvents and fuzzMaxOps bound one program (the wheel is quadratic
// in the events sharing one instant); the seed corpus needs 10⁴ events.
const (
	fuzzMaxEvents = 10_000
	fuzzMaxOps    = 1 << 12
	fuzzBands     = 3
	fuzzTimers    = 4
)

// fuzzBandDelay is the delay of each band. One is zero; the middle one is
// what a child scheduled with arg>>4 == 4 waits, and a width-5 mantissa-0
// op, so band entries tie with plain events at their instant.
var fuzzBandDelay = [fuzzBands]Duration{0, 16, 300}

type fuzzOp struct {
	kind   byte
	at     Time
	rep    int // scheduling ops: how many events
	arg    byte
	target int  // fuzzCancel: which one
	event  bool // fuzzTimer: act from a 't' event instead of at once; fuzzEvery: file 'k' events
}

// fuzzDelay stratifies delays by magnitude: width picks a power of two
// from 1 to 2⁶² (0 is a zero delay), the mantissa a point within the octave.
func fuzzDelay(width, mantissa byte) Duration {
	k := uint(width) % 64
	if k == 0 {
		return 0
	}
	base := int64(1) << (k - 1)
	if base < 256 {
		return Duration(base + int64(mantissa)%base)
	}
	return Duration(base + int64(mantissa)*(base>>8))
}

// fuzzAdd is t+d clamped instead of overflowing: the far end of time is a
// legal instant.
func fuzzAdd(t Time, d Duration) Time {
	if d > Duration(maxTime-t) {
		return maxTime
	}
	return t.Add(d)
}

func decodeFuzzProgram(prog []byte) []fuzzOp {
	if len(prog) > 4*fuzzMaxOps {
		prog = prog[:4*fuzzMaxOps]
	}
	ops := make([]fuzzOp, 0, len(prog)/4)
	clock, events := Time(0), 0
	for ; len(prog) >= 4; prog = prog[4:] {
		op := fuzzOp{kind: prog[0] % 8, arg: prog[3], target: int(prog[1])<<8 | int(prog[2])}
		if op.kind == fuzzTimer && prog[0]&16 != 0 {
			op.kind = fuzzEvery
		}
		// What one event of the op can add to the calendar, itself included.
		cost := 0
		switch op.kind {
		case fuzzSchedule:
			cost = 1
		case fuzzParent:
			cost = 1 + int(op.arg&3)
		case fuzzStopper:
			// Itself, a child, and after the Stop an 'x' and a two-link chain.
			cost = 5
		case fuzzBandOp:
			cost = fuzzBandCost
		case fuzzBandParent:
			cost = 1 + 2*fuzzBandCost
		case fuzzTimer:
			// The 't' event, two armings, each firing at most twice (a timer
			// re-arms itself on every third firing) with a child apiece.
			cost = 8
			op.event = prog[0]&8 != 0
		case fuzzEvery:
			cost = fuzzTickerCost
			op.event = prog[0]&8 != 0
		}
		if cost > 0 {
			want := 1 + int(prog[0]>>3)
			switch op.kind {
			case fuzzTimer:
				want = 1 // its high bits are not a count
			case fuzzEvery:
				want = 1 + int(prog[0]>>5)
			}
			op.rep = min(want, (fuzzMaxEvents-events)/cost)
			events += op.rep * cost
		}
		op.at = fuzzAdd(clock, fuzzDelay(prog[1], prog[2]))
		if op.kind == fuzzRunUntil {
			clock = op.at
		}
		ops = append(ops, op)
	}
	return ops
}

// fuzzEvent is what a scheduled event carries to its firing: the letter it
// logs under — 'f' plain, 'p' parent, 'c' child, 's' stopper, 'q' band
// parent, 'l' band event, 't' timer op, 'T' timer firing, 'K' tick, 'k' ticker
// cancel, 'x' scheduled into a stopped engine — its op's arg, and an id (the
// scheduling op's event number; a child's is its parent's, a timer firing's
// its timer, a tick's and a ticker cancel's its ticker). A band event also
// carries its band and which of the two band handlers it was scheduled with;
// its id counts band events.
type fuzzEvent struct {
	kind byte
	arg  byte
	id   int
	band int
	alt  bool
}

// fuzzLetter is the letter the events of a scheduling op log under.
var fuzzLetter = [8]byte{fuzzSchedule: 'f', fuzzParent: 'p', fuzzStopper: 's', fuzzBandParent: 'q', fuzzTimer: 't'}

func (ev fuzzEvent) pack() int64 { return int64(ev.id)<<16 | int64(ev.arg)<<8 | int64(ev.kind) }

func unpackFuzzEvent(v int64) fuzzEvent {
	return fuzzEvent{kind: byte(v), arg: byte(v >> 8), id: int(v >> 16)}
}

// fuzzRec is one line of a replay's log: an event firing (its letter, the
// clock, its id, which band handler ran, and the live pending events as the
// handler sees them), or the state after a run ('r': the clock, live pending
// events, Fired and Canceled).
type fuzzRec struct {
	kind     byte
	at       Time
	id       int
	alt      bool
	pending  int
	fired    uint64
	canceled uint64
}

// fuzzCal is the calendar a program runs on: an Engine, or the oracle.
type fuzzCal interface {
	now() Time
	// pending counts the events waiting to fire: Pending less the dead cells.
	pending() int
	fired() uint64
	canceled() uint64
	scheduled() uint64
	// at schedules ev and returns its handle for cancel: 0, 1, 2, ...
	at(t Time, ev fuzzEvent) int
	cancel(handle int)
	// bandAfter schedules ev, whose handler is ev.alt's, on band ev.band.
	bandAfter(ev fuzzEvent)
	// timerReset arms timer k to fire at t; timerStop disarms it.
	timerReset(k int, t Time)
	timerStop(k int)
	// every starts a ticker whose ticks are ev, and returns its handle.
	every(period Duration, ev fuzzEvent) int
	stop()
	runUntil(deadline Time)
	run()
}

// fuzzState interprets a program against a calendar. Everything an event
// does when it fires is here, written once against fuzzCal, so the engine
// replays and the oracle differ in nothing but the calendar underneath.
type fuzzState struct {
	cal       fuzzCal
	recs      []fuzzRec
	ids       int
	handles   int
	bandIDs   int
	timeFired [fuzzTimers]int
	tickers   []fuzzTicker
	stopped   bool
	stopArg   byte
}

// fuzzTicker is a ticker's handle and how many times it has ticked.
type fuzzTicker struct {
	handle int
	ticks  int
}

func (st *fuzzState) at(t Time, ev fuzzEvent) int {
	h := st.cal.at(t, ev)
	st.handles = h + 1
	return h
}

// every starts a ticker with behaviour arg and, if kill, a 'k' event at t
// that cancels it. One whose first tick would pass the end of time is not
// started.
func (st *fuzzState) every(arg byte, kill bool, t Time) {
	d := fuzzTickPeriod(arg)
	if st.cal.now() > maxTime-Time(d) {
		return
	}
	k := len(st.tickers)
	h := st.cal.every(d, fuzzEvent{kind: 'K', arg: arg, id: k})
	st.handles = h + 1
	st.tickers = append(st.tickers, fuzzTicker{handle: h})
	if kill {
		st.at(t, fuzzEvent{kind: 'k', id: k})
	}
}

// fuzzBandCost is what one band event can add to the calendar, itself
// included: a chain of up to three more, each link with a second entry
// beside it, a child now and a plain event a band's delay later.
const fuzzBandCost = 16

// bandAfter puts a band event with behaviour arg on band k. At the end of
// time only the zero-delay band has room.
func (st *fuzzState) bandAfter(k int, arg byte, alt bool) {
	if st.cal.now() > maxTime-Time(fuzzBandDelay[k]) {
		k = 0
	}
	st.cal.bandAfter(fuzzEvent{kind: 'l', arg: arg, id: st.bandIDs, band: k, alt: alt})
	st.bandIDs++
}

// timerDo performs a fuzzTimer op's action on timer arg&3 with deadline t.
func (st *fuzzState) timerDo(arg byte, t Time) {
	c, k := st.cal, int(arg&3)
	switch arg >> 2 & 3 {
	case fuzzTimerReset:
		c.timerReset(k, t)
	case fuzzTimerStop:
		c.timerStop(k)
	case fuzzTimerStopReset:
		c.timerStop(k)
		c.timerReset(k, t)
	case fuzzTimerResetTwice:
		c.timerReset(k, t)
		c.timerReset(k, t)
	}
}

// fire is every handler's body; alt says which of the two band handlers the
// calendar called, false for the other kinds.
func (st *fuzzState) fire(ev fuzzEvent, alt bool) {
	c := st.cal
	now := c.now()
	st.recs = append(st.recs, fuzzRec{kind: ev.kind, at: now, id: ev.id, alt: alt, pending: c.pending()})
	later := fuzzAdd(now, Duration(1)<<(ev.arg>>4))
	switch ev.kind {
	case 'p':
		// arg&3 children. The first — the one that lands in the hole the
		// parent's pop left in the heap — fires later and the rest at the
		// parent's instant (arg&4), or the other way round; arg&8 cancels it.
		first := -1
		for j := 0; j < int(ev.arg&3); j++ {
			t := now
			if (j == 0) == (ev.arg&4 != 0) {
				t = later
			}
			h := st.at(t, fuzzEvent{kind: 'c', id: ev.id})
			if j == 0 {
				first = h
			}
		}
		if first >= 0 && ev.arg&8 != 0 {
			c.cancel(first)
		}
	case 's':
		// Stop, with the hole open unless arg&2 fills it first. arg&1 is for
		// runTo: schedule into the stopped engine before resuming.
		if ev.arg&2 != 0 {
			st.at(now, fuzzEvent{kind: 'c', id: ev.id})
		}
		st.stopped, st.stopArg = true, ev.arg
		c.stop()
	case 'q':
		// One or two entries (arg&1) on band arg>>1&3, the second with the
		// other handler; arg's high half is what they do in their turn.
		k := int(ev.arg>>1&3) % fuzzBands
		for j := 0; j <= int(ev.arg&1); j++ {
			st.bandAfter(k, ev.arg>>4, (ev.arg&8 != 0) != (j == 1))
		}
	case 'l':
		// arg&3 is how much longer the chain goes on. A link puts the next
		// one on its own band — drained at that point, or not — or on one of
		// the others (arg>>2&3; 3 is its own again, with a second entry under
		// the other handler behind it), into the hole its pop left open
		// unless a child fills that first (arg&16). arg&32 hands the chain to
		// the other handler, arg&64 adds a plain event that ties with band
		// 1's entries, arg&128 stops the run with the bands armed.
		if ev.arg&16 != 0 {
			st.at(now, fuzzEvent{kind: 'c', id: ev.id})
		}
		if depth := ev.arg & 3; depth > 0 {
			next, hop := ev.arg&^3|(depth-1), int(ev.arg>>2&3)
			alt := ev.alt != (ev.arg&32 != 0)
			st.bandAfter((ev.band+hop%fuzzBands)%fuzzBands, next, alt)
			if hop == 3 {
				st.bandAfter(ev.band, 0, !alt)
			}
		}
		if ev.arg&64 != 0 {
			st.at(fuzzAdd(now, fuzzBandDelay[1]), fuzzEvent{kind: 'c', id: ev.id})
		}
		if ev.arg&128 != 0 {
			st.stopped, st.stopArg = true, 0
			c.stop()
		}
	case 't':
		st.timerDo(ev.arg, fuzzAdd(now, Duration(1)<<(ev.arg>>4)-1))
	case 'T':
		// A timer's firings share one payload, so what they do goes by their
		// count: every third re-arms the timer from inside its own handler,
		// with the hole open and no cell filed; some schedule a child, some
		// stop the next timer, whose cell may be the root by then.
		k := ev.id
		st.timeFired[k]++
		switch n := st.timeFired[k]; {
		case n%3 == 0:
			c.timerReset(k, fuzzAdd(now, Duration(1)<<(n%8)))
		case n%4 == 1:
			st.at(now, fuzzEvent{kind: 'c', id: k})
		case n%5 == 2:
			c.timerStop((k + 1) % fuzzTimers)
		}
	case 'K':
		// The ticker cancels itself on its last tick, or when the next one
		// would pass the end of time; the arg bits are at fuzzEvery.
		tk := &st.tickers[ev.id]
		tk.ticks++
		d := fuzzTickPeriod(ev.arg)
		last := tk.ticks > int(ev.arg>>1&7) || now > maxTime-Time(d)
		if last && ev.arg&128 != 0 {
			c.cancel(tk.handle)
		}
		if ev.arg&16 != 0 {
			st.at(fuzzAdd(now, d), fuzzEvent{kind: 'c', id: ev.id})
		}
		if ev.arg&32 != 0 {
			st.bandAfter(1+int(ev.arg&1), 0, false)
		}
		if ev.arg&64 != 0 {
			c.cancel(st.tickers[(ev.id+1)%len(st.tickers)].handle)
		}
		if last && ev.arg&128 == 0 {
			c.cancel(tk.handle)
		}
	case 'k':
		c.cancel(st.tickers[ev.id].handle)
	}
}

// runTo runs to deadline (final: to the end), resuming after every Stop.
func (st *fuzzState) runTo(deadline Time, final bool) {
	c := st.cal
	for {
		st.stopped = false
		if final {
			c.run()
		} else {
			c.runUntil(deadline)
		}
		st.recs = append(st.recs, fuzzRec{kind: 'r', at: c.now(), pending: c.pending(), fired: c.fired(), canceled: c.canceled()})
		if !st.stopped {
			return
		}
		if st.stopArg&1 != 0 {
			st.at(c.now(), fuzzEvent{kind: 'x'})
		}
		if st.stopArg&4 != 0 {
			st.bandAfter(int(st.stopArg>>4)%fuzzBands, 1, false)
		}
	}
}

// runFuzzProgram runs ops on the calendar mk returns, ending with Run, and
// returns the log and the Scheduled count.
func runFuzzProgram(mk func(*fuzzState) fuzzCal, ops []fuzzOp) ([]fuzzRec, uint64) {
	st := &fuzzState{}
	st.cal = mk(st)
	for _, op := range ops {
		switch op.kind {
		case fuzzSchedule, fuzzParent, fuzzStopper, fuzzBandParent:
			for r := 0; r < op.rep; r++ {
				st.at(op.at, fuzzEvent{kind: fuzzLetter[op.kind], arg: op.arg, id: st.ids})
				st.ids++
			}
		case fuzzBandOp:
			for r := 0; r < op.rep; r++ {
				st.bandAfter(op.target>>8%fuzzBands, op.arg, op.target&1 != 0)
			}
		case fuzzCancel:
			if st.handles > 0 {
				st.cal.cancel(op.target % st.handles)
			}
		case fuzzEvery:
			for r := 0; r < op.rep; r++ {
				st.every(op.arg, op.event, op.at)
			}
		case fuzzTimer:
			if op.rep > 0 && op.event {
				st.at(op.at, fuzzEvent{kind: 't', arg: op.arg})
			} else if op.rep > 0 {
				st.timerDo(op.arg, op.at)
			}
		case fuzzRunUntil:
			st.runTo(op.at, false)
		}
	}
	st.runTo(maxTime, true)
	return st.recs, st.cal.scheduled()
}

// engineCal is an Engine as a fuzzCal. Plain events go through At and the
// rest through AtFunc, so both cell shapes are in the calendar; band events
// go through the engine's bands, or — bands false — through AfterFunc, which
// is what a band claims to be indistinguishable from.
type engineCal struct {
	e      *Engine
	st     *fuzzState
	refs   []EventRef
	bands  bool
	timers [fuzzTimers]*Timer
}

func newEngineCal(kind SchedulerKind, bands bool) func(*fuzzState) fuzzCal {
	return func(st *fuzzState) fuzzCal {
		c := &engineCal{e: NewEngine(WithScheduler(kind)), st: st, bands: bands}
		for k := range c.timers {
			c.timers[k] = c.e.NewTimer(fuzzFire, Payload{Obj: st, I: fuzzEvent{kind: 'T', id: k}.pack()})
		}
		return c
	}
}

func fuzzFire(_ *Engine, p Payload) { p.Obj.(*fuzzState).fire(unpackFuzzEvent(p.I), false) }

// fuzzBandEvent is the object a band event rides with: two components, the
// handlers below, share each band.
type fuzzBandEvent struct {
	st *fuzzState
	ev fuzzEvent
}

func fuzzBandFire(_ *Engine, p Payload) {
	be := p.Obj.(*fuzzBandEvent)
	be.st.fire(be.ev, false)
}

func fuzzBandFireAlt(_ *Engine, p Payload) {
	be := p.Obj.(*fuzzBandEvent)
	be.st.fire(be.ev, true)
}

func (c *engineCal) now() Time         { return c.e.Now() }
func (c *engineCal) fired() uint64     { return c.e.Fired() }
func (c *engineCal) canceled() uint64  { return c.e.Canceled() }
func (c *engineCal) scheduled() uint64 { return c.e.Scheduled() }
func (c *engineCal) cancel(h int)      { c.refs[h].Cancel() }
func (c *engineCal) stop()             { c.e.Stop() }
func (c *engineCal) runUntil(d Time)   { c.e.RunUntil(d) }
func (c *engineCal) run()              { c.e.Run() }

// pending is the live entries, which is what the oracle's queue holds: a
// walk of the calendar that leaves out cancelled cells and the cells stopped
// and re-armed timers left behind. Pending counts those too.
func (c *engineCal) pending() int {
	entries, live := CalendarCensus(c.e)
	if entries != c.e.Pending() {
		panic(fmt.Sprintf("Pending() = %d, the calendar holds %d entries", c.e.Pending(), entries))
	}
	return live
}

func (c *engineCal) at(t Time, ev fuzzEvent) int {
	c.refs = append(c.refs, c.e.AtFunc(t, fuzzFire, Payload{Obj: c.st, I: ev.pack()}))
	return len(c.refs) - 1
}

func (c *engineCal) bandAfter(ev fuzzEvent) {
	fn, be := fuzzBandFire, &fuzzBandEvent{st: c.st, ev: ev}
	if ev.alt {
		fn = fuzzBandFireAlt
	}
	if c.bands {
		c.e.Band(fuzzBandDelay[ev.band]).After(fn, be)
	} else {
		c.e.AfterFunc(fuzzBandDelay[ev.band], fn, Payload{Obj: be})
	}
}

func (c *engineCal) timerReset(k int, t Time) { c.timers[k].Reset(t.Sub(c.e.Now())) }
func (c *engineCal) timerStop(k int)          { c.timers[k].Stop() }

func (c *engineCal) every(d Duration, ev fuzzEvent) int {
	c.refs = append(c.refs, c.e.Every(d, fuzzFire, Payload{Obj: c.st, I: ev.pack()}))
	return len(c.refs) - 1
}

// oracleEvent is a pending event of the reference calendar, or a ticker's
// handle: that one is never queued, its ticks point back at it, and
// cancelling it only marks it.
type oracleEvent struct {
	at      Time
	seq     uint64
	ev      fuzzEvent
	stopped bool
	done    bool // fired or drained: a later cancel is a no-op
	period  Duration
	ticker  *oracleEvent // a tick's ticker
}

// oracleKey is an event's place in the order.
type oracleKey struct {
	at  Time
	seq uint64
}

func (oe *oracleEvent) key() oracleKey { return oracleKey{at: oe.at, seq: oe.seq} }

// orderOracle is the reference the backends are checked against: the
// pending events as a slice kept sorted by (time, seq), the engine's run
// loop restated over it with no heap, no wheel, no bands and no timer cells.
// A timer is its arming, an ordinary queue entry that Reset deletes and
// inserts anew. A ticker is an event that re-arms itself a period later.
type orderOracle struct {
	st        *fuzzState
	clock     Time
	seq       uint64
	nfired    uint64
	ncanceled uint64
	stopped   bool
	queue     []*oracleEvent
	dead      int // cancelled entries still in queue
	byHandle  []*oracleEvent
	timers    [fuzzTimers]*oracleEvent // nil while stopped
}

func newOrderOracle(st *fuzzState) fuzzCal { return &orderOracle{st: st} }

func (k oracleKey) before(l oracleKey) bool { return k.at < l.at || (k.at == l.at && k.seq < l.seq) }

func (o *orderOracle) now() Time        { return o.clock }
func (o *orderOracle) fired() uint64    { return o.nfired }
func (o *orderOracle) canceled() uint64 { return o.ncanceled }

func (o *orderOracle) pending() int      { return len(o.queue) - o.dead }
func (o *orderOracle) scheduled() uint64 { return o.seq }
func (o *orderOracle) stop()             { o.stopped = true }

func (o *orderOracle) schedule(t Time, ev fuzzEvent) *oracleEvent {
	oe := &oracleEvent{at: t, seq: o.seq, ev: ev}
	o.seq++
	i := sort.Search(len(o.queue), func(i int) bool { return oe.key().before(o.queue[i].key()) })
	o.queue = append(o.queue, nil)
	copy(o.queue[i+1:], o.queue[i:])
	o.queue[i] = oe
	return oe
}

func (o *orderOracle) at(t Time, ev fuzzEvent) int {
	o.byHandle = append(o.byHandle, o.schedule(t, ev))
	return len(o.byHandle) - 1
}

func (o *orderOracle) bandAfter(ev fuzzEvent) { o.schedule(o.clock.Add(fuzzBandDelay[ev.band]), ev) }

func (o *orderOracle) cancel(h int) {
	if oe := o.byHandle[h]; !oe.done && !oe.stopped {
		oe.stopped = true
		if oe.period == 0 {
			o.dead++
		}
	}
}

func (o *orderOracle) every(d Duration, ev fuzzEvent) int {
	tk := &oracleEvent{ev: ev, period: d}
	o.byHandle = append(o.byHandle, tk)
	o.schedule(o.clock.Add(d), ev).ticker = tk
	return len(o.byHandle) - 1
}

// timerStop deletes the arming, which counts as cancelled there and then.
func (o *orderOracle) timerStop(k int) {
	oe := o.timers[k]
	if oe == nil {
		return
	}
	i := sort.Search(len(o.queue), func(i int) bool { return !o.queue[i].key().before(oe.key()) })
	o.queue = append(o.queue[:i], o.queue[i+1:]...)
	o.timers[k] = nil
	o.ncanceled++
}

// timerReset is delete and insert at (t, next seq).
func (o *orderOracle) timerReset(k int, t Time) {
	o.timerStop(k)
	o.timers[k] = o.schedule(t, fuzzEvent{kind: 'T', id: k})
}

func (o *orderOracle) run() { o.runTo(maxTime) }

func (o *orderOracle) runUntil(deadline Time) {
	o.runTo(deadline)
	if !o.stopped && o.clock < deadline {
		o.clock = deadline
	}
}

func (o *orderOracle) runTo(deadline Time) {
	o.stopped = false
	for !o.stopped && len(o.queue) > 0 && o.queue[0].at <= deadline {
		o.step()
	}
}

func (o *orderOracle) step() {
	oe := o.queue[0]
	o.queue = o.queue[1:]
	oe.done = true
	if oe.stopped {
		o.dead--
		o.ncanceled++
		return
	}
	if oe.ev.kind == 'T' {
		o.timers[oe.ev.id] = nil
	}
	o.clock = oe.at
	o.nfired++
	if tk := oe.ticker; tk != nil {
		// A tick after a cancel fires and does nothing; fn's own schedules
		// come before the re-arm.
		if tk.stopped {
			return
		}
		o.st.fire(oe.ev, false)
		if !tk.stopped {
			o.schedule(o.clock.Add(tk.period), oe.ev).ticker = tk
		}
		return
	}
	o.st.fire(oe.ev, oe.ev.alt)
}

// FuzzSchedulerOrder replays a program on the sorted-slice oracle and on
// both backends, each with bands and with AfterFunc standing in for them
// (an Every rides its band either way), and requires five identical logs
// — every firing's (time, id), which band handler ran and the live pending
// events it saw, and the clock, live pending events, Fired and Canceled
// after every run — and five identical Scheduled counts.
// The oracle's timers are delete and insert and it has no dead cells to
// count, so the backends report their live entries (engineCal.pending); how
// many dead ones Pending adds is held by TestEventAccountingIsExact and
// TestTimerLifecycle.
//
// Besides the seeds added here, testdata/fuzz/FuzzSchedulerOrder holds one
// per calendar state the lazy-pop heap, the bands, the timers and the
// tickers added:
//
//	hole-children      parents with 0–3 children, first child now or later
//	hole-cancel        the child that filled the hole cancelled, by its parent and later by handle
//	hole-stop          Stop with the hole open, then a pop, or a schedule and a pop; Stop with it filled
//	band-burst         32 entries on one band behind 32 filed an instant earlier, plain events tying with both, run in two legs
//	band-handlers      After from handlers: on an idle, an armed and the handler's own drained band, into the hole and behind a child, Stop with bands armed
//	band-shared        two handlers alternating down one band, chains that swap handler and hop bands, ties with a plain event band 1's delay on
//	band-zero-delay    the zero-delay band fed from the driver, from plain events and from its own handler at one instant, around zero-length runs
//	timer-rearm        a deadline pushed back over one cell: later, equal-time, ahead of and behind a plain event at its instant
//	timer-earlier      deadlines earlier than the filed cell, of an armed and of a stopped timer: orphans, drained mid-run and last
//	timer-stop-root    Stop with the tracked cell at the root; Stop then Reset over it; a dead cell the only thing left to pop
//	timer-self-reset   timers re-armed inside their own handlers and from events at their instant, stopping one another, Stop between
//	ticker-shared      tickers sharing a band with each other and with band events, ticks tying with children, band and plain events
//	ticker-cancel-self tickers cancelled by their own tick before and after its work, by 'k' events, by the driver and by another ticker's tick
func FuzzSchedulerOrder(f *testing.F) {
	const burst = 31 << 3
	// 10⁴ events at one instant; 10³ parents of one same-instant child
	// ahead of 10³ events at a later instant.
	f.Add(bytes.Repeat([]byte{burst | fuzzSchedule, 7, 0, 0}, 313))
	f.Add(append(bytes.Repeat([]byte{burst | fuzzSchedule, 7, 0, 0}, 32), bytes.Repeat([]byte{burst | fuzzParent, 0, 0, 1}, 32)...))
	// Zero delays around a zero-length run.
	f.Add([]byte{fuzzSchedule, 0, 0, 0, fuzzParent, 0, 0, 1, fuzzRunUntil, 0, 0, 0, fuzzSchedule, 0, 0, 0})
	// pop(bound) with the bound below, at and above the minimum (event at
	// 64: run to 32, to 64; event at 128: run to 160), then on an empty
	// calendar.
	f.Add([]byte{
		fuzzSchedule, 7, 0, 0, fuzzRunUntil, 6, 0, 0, fuzzRunUntil, 6, 0, 0,
		fuzzSchedule, 7, 0, 0, fuzzRunUntil, 7, 32, 0, fuzzRunUntil, 7, 0, 0,
	})
	f.Add([]byte{fuzzRunUntil, 20, 9, 0, fuzzRunUntil, 0, 0, 0})
	// RunUntil to the end of time (the second delay is clamped there) lands
	// the clock on it, which Run never does.
	f.Add([]byte{fuzzSchedule, 7, 0, 0, fuzzRunUntil, 63, 255, 0, fuzzRunUntil, 63, 255, 0})
	// Cancels of live, fired and drained events; delays up to the end of time.
	f.Add([]byte{
		fuzzSchedule, 63, 255, 0, fuzzParent, 40, 1, 1, fuzzSchedule, 12, 3, 0,
		fuzzCancel, 0, 1, 0, fuzzRunUntil, 13, 0, 0, fuzzCancel, 0, 2, 0,
		fuzzSchedule, 63, 255, 0, fuzzRunUntil, 63, 0, 0, fuzzCancel, 0, 1, 0,
		fuzzParent, 63, 255, 0xf6, fuzzBandOp, 63, 255, 0, fuzzRunUntil, 63, 255, 0, fuzzSchedule, 63, 0, 0,
	})

	f.Fuzz(func(t *testing.T, prog []byte) {
		ops := decodeFuzzProgram(prog)
		want, wantScheduled := runFuzzProgram(newOrderOracle, ops)
		for _, kind := range backends {
			for _, bands := range []bool{true, false} {
				got, scheduled := runFuzzProgram(newEngineCal(kind, bands), ops)
				if scheduled != wantScheduled {
					t.Fatalf("%s bands=%v: Scheduled() = %d, oracle %d", kind, bands, scheduled, wantScheduled)
				}
				if len(got) != len(want) {
					t.Fatalf("%s bands=%v: %d log records, oracle %d", kind, bands, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s bands=%v: record %d = %+v, oracle %+v", kind, bands, i, got[i], want[i])
					}
				}
			}
		}
	})
}
