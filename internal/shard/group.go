package shard

import (
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/atm"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Conduit replaces the delivery half of a cut link. The owning (source)
// shard builds the cut link with zero link delay and the conduit as its
// destination, so every transmitted cell lands here synchronously at its
// transmission-end time; the conduit stamps it with the real propagation
// delay and parks it until the next epoch barrier, when the Group moves it
// onto the destination engine as a normal future event. Per-conduit order
// is FIFO and the delay is constant between transient events, so stamped
// arrival times are non-decreasing and delivery order equals send order —
// exactly the wire the conduit replaces.
type Conduit struct {
	// Delay is the cut link's real propagation delay.
	Delay sim.Duration
	// Dst is the receiving component on the destination shard.
	Dst atm.Sink

	dst     *sim.Engine
	pending ring.Ring[crossCell] // written by the source shard's goroutine
	inbox   ring.Ring[atm.Cell]  // drained by the destination shard's goroutine
}

type crossCell struct {
	at   sim.Time
	cell atm.Cell
}

// Receive implements atm.Sink on the source shard: it stamps the cell's
// arrival time and parks it for the next barrier. e is the source shard's
// engine (the one driving the cut link).
func (cd *Conduit) Receive(e *sim.Engine, c atm.Cell) {
	cd.pending.Push(crossCell{at: e.Now().Add(cd.Delay), cell: c})
}

// conduitDeliver is the typed handler the Group schedules on the
// destination engine: pop the next crossed cell and hand it to the real
// destination. FIFO pop is correct because injection order equals arrival
// order (see the Conduit comment).
func conduitDeliver(e *sim.Engine, p sim.Payload) {
	cd := p.Obj.(*Conduit)
	cd.Dst.Receive(e, cd.inbox.Pop())
}

// flush moves every parked cell onto the destination engine. Called by
// Advance on its caller's goroutine with every other shard held at the
// barrier. It stays serial: measured on the two-shard benchmark chain it
// is about 1 µs of a 50 µs epoch (DESIGN.md §14).
func (cd *Conduit) flush() int {
	n := cd.pending.Len()
	for i := 0; i < n; i++ {
		cc := cd.pending.Pop()
		cd.inbox.Push(cc.cell)
		cd.dst.AtFunc(cc.at, conduitDeliver, sim.Payload{Obj: cd})
	}
	return n
}

// Stats is a point-in-time copy of a Group's synchronization accounting.
// The times are wall-clock: they differ from run to run and take no part in
// any byte-identity comparison.
type Stats struct {
	// Epochs is the number of barrier windows executed.
	Epochs uint64
	// CellsCrossed counts cells moved between shards at barriers.
	CellsCrossed uint64
	// BusyNS[i] is shard i's accumulated wall-clock time inside RunUntil.
	BusyNS []uint64
	// CritNS accumulates, per epoch, the maximum per-shard busy time: the
	// protocol's critical path, i.e. what the wall clock becomes when every
	// shard has its own core (plus barrier overhead).
	CritNS uint64
}

// Group couples the engines of one sharded topology and advances them in
// lock-step epochs. Build it once per run, register every cut link's
// conduit, then drive it with Advance — the sharded replacement for
// Engine.RunUntil.
type Group struct {
	engines  []*sim.Engine
	conduits []*Conduit
	window   sim.Duration

	epochs       uint64
	cellsCrossed uint64
	busyNS       []uint64
	critNS       uint64

	// The rendezvous (see Advance). deadline is written by the caller's
	// goroutine and polled by the workers; arrived is bumped by the workers
	// and polled by the caller. Each sits on its own cache line.
	deadline paddedInt64
	arrived  paddedInt64
	slots    []slot

	barrierWaits  telemetry.Counter
	nullMsgs      telemetry.Counter
	crossedCtr    telemetry.Counter
	barrierParks  telemetry.Counter
	advanceNS     telemetry.Histogram
	barrierWaitNS telemetry.Histogram
	flushHistNS   telemetry.Histogram
}

// NewGroup builds a group over the shard engines. window is the
// conservative lookahead from Partition.Lookahead (0 means no cut links:
// epochs span the whole requested horizon). reg, which may be nil,
// receives the shard.* synchronization counters; it must be the
// coordinator-owned registry — the caller's, not a shard's.
func NewGroup(engines []*sim.Engine, window sim.Duration, reg *telemetry.Registry) *Group {
	g := &Group{
		engines:       engines,
		window:        window,
		busyNS:        make([]uint64, len(engines)),
		slots:         make([]slot, len(engines)),
		barrierWaits:  reg.Counter("shard.barrier_waits"),
		nullMsgs:      reg.Counter("shard.null_messages"),
		crossedCtr:    reg.Counter("shard.cells_crossed"),
		barrierParks:  reg.Counter("shard.barrier_parks"),
		advanceNS:     reg.Histogram("shard.advance_ns"),
		barrierWaitNS: reg.Histogram("shard.barrier_wait_ns"),
		flushHistNS:   reg.Histogram("shard.flush_ns"),
	}
	for i := range g.slots {
		g.slots[i].wake = make(chan struct{}, 1)
	}
	return g
}

// NewConduit registers the crossing for one cut link: cells it receives on
// the source shard surface at dst on engine dstEngine after delay. Call
// during the build, before Advance.
func (g *Group) NewConduit(delay sim.Duration, dstEngine *sim.Engine, dst atm.Sink) *Conduit {
	cd := &Conduit{Delay: delay, Dst: dst, dst: dstEngine}
	g.conduits = append(g.conduits, cd)
	return cd
}

// Stat copies the group's accounting.
func (g *Group) Stat() Stats {
	return Stats{
		Epochs: g.epochs, CellsCrossed: g.cellsCrossed,
		BusyNS: append([]uint64(nil), g.busyNS...), CritNS: g.critNS,
	}
}

// Advance runs every engine from the common current time to now+d in
// lookahead-bounded epochs. The calling goroutine runs shard 0 itself and
// one worker goroutine per further shard lives for the duration of the
// call, so N shards occupy exactly N goroutines. Each epoch the caller
// publishes the window's deadline in an atomic word and runs its own
// shard; a worker that sees a new deadline runs its engine to it, records
// its timestamps in its own padded slot and bumps the atomic arrival
// counter. When the counter shows every worker in, the caller drains the
// conduits — the workers are still waiting for the next deadline, so
// nothing else touches an engine or a conduit — and publishes the next
// window. A waiter polls for spinFor and then parks; whoever makes its
// condition true pays a wake-up only if it did park. When the process has
// fewer processors than shard goroutines in flight (GOMAXPROCS < N, or a
// fleet running several groups at once) a spinning waiter would hold the
// processor a peer needs, so waiters park at once.
//
// The protocol needs no locks: every shard write in a window precedes that
// shard's arrival increment, which the caller's load observes before it
// drains; the drain precedes the deadline store, which a worker's load
// observes before it enters the next window. Those are the same two
// happens-before edges an unbuffered channel hand-off gives, and the race
// detector checks them on every test run.
//
// Determinism: within a window each engine is sequential; at a barrier the
// caller drains conduits in registration order, cells in FIFO order, so
// injected (time, seq) pairs — and therefore the whole run — depend only on
// the partition, never on goroutine timing.
//
// A panic in an event handler is caught on the goroutine it happened on;
// that shard still arrives at the barrier, Advance stops after the epoch,
// joins its workers and panics on the calling goroutine with a *Panic. The
// group is not usable afterwards.
func (g *Group) Advance(d sim.Duration) {
	if d <= 0 {
		return
	}
	end := g.engines[0].Now().Add(d)
	n := len(g.engines)
	if n == 1 {
		g.engines[0].RunUntil(end)
		return
	}

	running.Add(int64(n))
	defer running.Add(-int64(n))
	procs := processors()
	spare := func() bool { return running.Load() <= procs }
	base := time.Now()
	workers := int64(n - 1)
	g.deadline.Store(deadlineIdle)
	g.arrived.Store(0)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := &g.slots[i]
			seen := deadlineIdle
			released := func() bool { return g.deadline.Load() != seen }
			for {
				s.await(spare(), released)
				if seen = g.deadline.Load(); seen == deadlineStop {
					return
				}
				g.runWindow(i, sim.Time(seen), base)
				if g.arrived.Add(1) == workers {
					release(g.slots[:1], spare())
				}
			}
		}(i)
	}
	publish := func(t int64) {
		g.deadline.Store(t)
		release(g.slots[1:], spare())
	}
	// Deferred so that the workers are stopped and joined on every way out,
	// including a panic raised by the drain itself.
	defer func() {
		publish(deadlineStop)
		wg.Wait()
		for i := range g.slots {
			g.barrierParks.Add(g.slots[i].parks)
			g.slots[i].parks = 0
		}
	}()

	allArrived := func() bool { return g.arrived.Load() == workers }
	for now := g.engines[0].Now(); now < end; now = g.engines[0].Now() {
		t := end
		if g.window > 0 {
			if nt := now.Add(g.window); nt < end {
				t = nt
			}
		}
		publish(int64(t))
		g.runWindow(0, t, base)
		g.slots[0].await(spare(), allArrived)
		g.arrived.Store(0)
		drain := time.Since(base)

		var maxBusy time.Duration
		for i := range g.slots {
			s := &g.slots[i]
			if s.panicked != nil {
				panic(s.panicked)
			}
			busy, wait := s.end-s.start, drain-s.end
			g.busyNS[i] += uint64(busy)
			g.advanceNS.Observe(uint64(busy))
			g.barrierWaitNS.Observe(uint64(wait))
			if busy > maxBusy {
				maxBusy = busy
			}
		}
		g.critNS += uint64(maxBusy)
		g.epochs++
		g.barrierWaits.Add(uint64(n))
		// Move crossed cells; an empty conduit flush is the barrier
		// protocol's equivalent of a CMB null message (a pure "my clock
		// reached the bound" notification), counted as such.
		for _, cd := range g.conduits {
			if c := cd.flush(); c == 0 {
				g.nullMsgs.Inc()
			} else {
				g.cellsCrossed += uint64(c)
				g.crossedCtr.Add(uint64(c))
			}
		}
		g.flushHistNS.Observe(uint64(time.Since(base) - drain))
	}
}

// runWindow runs shard i's engine to t on the calling goroutine, leaving
// the window's timestamps — and a handler's panic, if one escaped — in the
// shard's slot.
func (g *Group) runWindow(i int, t sim.Time, base time.Time) {
	s := &g.slots[i]
	defer func() {
		s.end = time.Since(base)
		if v := recover(); v != nil {
			s.panicked = &Panic{Shard: i, Value: v, Stack: debug.Stack()}
		}
	}()
	s.start = time.Since(base)
	g.engines[i].RunUntil(t)
}
