package main

import (
	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/switchalg"
)

// The layer ladder: direct drives of code the engine calls internally, so
// it cannot be bracketed with a span from outside a run. Each rung times a
// tight loop over one public entry point and reports a unit cost; the
// per-layer shares computed from them are estimates (labelled "computed"),
// to be replaced by the engine's self-profile under the same metric names
// when that lands (ROADMAP item 5).

// ladderSink keeps the compiler from discarding a rung's work.
var ladderSink float64

// holdRNG is a xorshift64 step: a cheap deterministic stream for event
// spacing that costs the same on every rung.
func holdRNG(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// holdHandler is the hold model's event: fire, draw the next delay from
// the stream carried in the payload, reschedule. It is a fixed typed
// handler, so the loop measures AtFunc + heap/wheel work + dispatch and
// nothing else. Payload.I is the stream state, Payload.F the largest delay.
func holdHandler(e *sim.Engine, p sim.Payload) {
	x := holdRNG(uint64(p.I))
	p.I = int64(x)
	e.AfterFunc(sim.Duration(1+x%uint64(p.F)), holdHandler, p)
}

// holdGap is the simulated time between consecutive fires, whatever the
// population: delays are uniform on [1, 2·holdGap·population], so a 1 k
// calendar spans ~2 ms (measurement-interval timers) and a 100 k one
// ~200 ms (retransmission timers), as the real workloads' calendars do.
const holdGap = 1000

// holdModel runs the classic hold benchmark on one calendar backend: a
// steady population of pending events, each fire scheduling one successor.
// It returns nanoseconds per event (one AfterFunc plus one fire).
func holdModel(b *bench, kind sim.SchedulerKind, population, fires int) float64 {
	sp := b.rec.begin(noSpan, "ladder:sim.hold["+string(kind)+"]", population)
	defer b.rec.end(sp)
	e := sim.NewEngine(sim.WithScheduler(kind))
	maxDelay := uint64(2 * holdGap * population)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < population; i++ {
		x = holdRNG(x)
		e.AtFunc(sim.Time(1+x%maxDelay), holdHandler, sim.Payload{I: int64(x | 1), F: float64(maxDelay)})
	}
	// One full turnover warms the event-cell pool and settles the
	// population's delay distribution before timing starts.
	step := sim.Duration(holdGap * 4096)
	for e.Fired() < uint64(2*population) {
		e.RunUntil(e.Now().Add(step))
	}
	start := e.Fired()
	ns := timed(func() {
		for e.Fired()-start < uint64(fires) {
			e.RunUntil(e.Now().Add(step))
		}
	})
	return ns / float64(e.Fired()-start)
}

// cancelState is the churn rung's timer table.
type cancelState struct {
	refs []sim.EventRef
	rng  uint64
	ops  int
}

// cancelTickGap is the simulated time between timer restarts. Each timer
// is armed len(refs) ticks ahead, and a cancelled cell lingers in the
// calendar until simulated time reaches it — exactly as a restarted RTO
// does — so the calendar steadily holds len(refs) cells: live timers plus
// cancelled ones awaiting drain.
const cancelTickGap = sim.Duration(1000)

func cancelNoop(*sim.Engine, sim.Payload) {}

// cancelDriver restarts one timer per tick, the ACK-clocked RTO pattern:
// cancel a pending timer, arm its replacement one RTO ahead.
func cancelDriver(e *sim.Engine, p sim.Payload) {
	st := p.Obj.(*cancelState)
	st.rng = holdRNG(st.rng)
	i := int(st.rng % uint64(len(st.refs)))
	st.refs[i].Cancel()
	rto := cancelTickGap * sim.Duration(len(st.refs))
	st.refs[i] = e.AfterFunc(rto, cancelNoop, sim.Payload{})
	st.ops++
	e.AfterFunc(cancelTickGap, cancelDriver, p)
}

// cancelChurn measures one timer restart (Cancel + AfterFunc, plus the
// later drain of the cancelled cell) against a calendar holding population
// cells.
func cancelChurn(b *bench, population, ops int) float64 {
	sp := b.rec.begin(noSpan, "ladder:sim.cancel", population)
	defer b.rec.end(sp)
	e := sim.NewEngine()
	st := &cancelState{refs: make([]sim.EventRef, population), rng: 0x2545f4914f6cdd1d}
	rto := cancelTickGap * sim.Duration(len(st.refs))
	for i := range st.refs {
		st.refs[i] = e.AfterFunc(rto+sim.Duration(i), cancelNoop, sim.Payload{})
	}
	e.AfterFunc(cancelTickGap, cancelDriver, sim.Payload{Obj: st})
	step := cancelTickGap * 1024
	for st.ops < len(st.refs) { // one RTO of warm-up fills the cancelled backlog
		e.RunUntil(e.Now().Add(step))
	}
	start := st.ops
	ns := timed(func() {
		for st.ops-start < ops {
			e.RunUntil(e.Now().Add(step))
		}
	})
	return ns / float64(st.ops-start)
}

// stubPort is the switchalg.Port a ladder-driven algorithm is attached to.
type stubPort struct{}

func (stubPort) QueueLen() int     { return 3 }
func (stubPort) Capacity() float64 { return atm.CPS(150e6) }

// phantomRungs drives a factory-built Phantom, attached to a stub port,
// through the two hooks the cell path calls per cell and per backward RM
// cell, and returns their unit costs in nanoseconds.
func phantomRungs(b *bench, calls int) (onTransmit, onBackwardRM float64) {
	sp := b.rec.begin(noSpan, "ladder:switchalg.Phantom", calls)
	defer b.rec.end(sp)
	alg := switchalg.NewPhantom(core.Config{UtilizationFactor: 5})()
	e := sim.NewEngine()
	alg.Attach(e, stubPort{})
	cell := atm.Cell{VC: 1}

	onTransmit = timed(func() {
		for i := 0; i < calls; i++ {
			alg.OnTransmit(sim.Time(i), &cell)
		}
	}) / float64(calls)

	er := atm.CPS(150e6)
	onBackwardRM = timed(func() {
		for i := 0; i < calls; i++ {
			cell.ER = er
			alg.OnBackwardRM(sim.Time(i), &cell)
			ladderSink += cell.ER
		}
	}) / float64(calls)
	return onTransmit, onBackwardRM
}

// tickRung drives core.PortControl.Tick — Phantom's per-interval MACR
// update, shared by the ATM switch and ip.PhantomDiscipline — and returns
// nanoseconds per tick.
func tickRung(b *bench, ticks int) float64 {
	sp := b.rec.begin(noSpan, "ladder:core.PortControl.Tick", ticks)
	defer b.rec.end(sp)
	pc := core.MustPortControl(core.Config{UtilizationFactor: 5, Capacity: atm.CPS(150e6)}, 0)
	pc.Queue = func() float64 { return 3 }
	interval := pc.Config().Interval
	now := sim.Time(0)
	ns := timed(func() {
		for i := 0; i < ticks; i++ {
			pc.Transmitted(float64(200 + i%100))
			now = now.Add(interval)
			pc.Tick(now)
		}
	})
	ladderSink += pc.MACR()
	return ns / float64(ticks)
}
