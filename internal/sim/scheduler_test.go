package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// traceOp is one step of a randomized engine workload: schedule an event at
// a relative delay, maybe cancel a previously scheduled one, maybe run the
// engine forward to a deadline.
type traceOp struct {
	kind   int // 0 = schedule, 1 = cancel, 2 = run-until
	delay  Duration
	target int // index into the ref table for cancels
}

// genTrace builds a deterministic random workload from seed. Delays are
// drawn from mixed magnitudes (0 ns up to ~17 min) so events land across
// many wheel levels, and cancels target both live and already-fired refs.
func genTrace(seed int64, n int) []traceOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]traceOp, n)
	for i := range ops {
		switch r := rng.Intn(10); {
		case r < 6:
			// Magnitude-stratified delay: pick a bit width, then a value.
			width := uint(rng.Intn(40))
			ops[i] = traceOp{kind: 0, delay: Duration(rng.Int63n(1 << width))}
		case r < 8:
			ops[i] = traceOp{kind: 1, target: rng.Intn(64)}
		default:
			width := uint(rng.Intn(34))
			ops[i] = traceOp{kind: 2, delay: Duration(rng.Int63n(1 << width))}
		}
	}
	return ops
}

// fireRec records one fired event for trace comparison.
type fireRec struct {
	at Time
	id int
}

// applyTrace replays ops on a fresh engine with the given backend and
// returns the full firing trace. Handlers themselves schedule follow-up
// events (including zero-delay and same-instant ones) so the trace also
// exercises scheduling from inside the run loop.
func applyTrace(kind SchedulerKind, ops []traceOp) []fireRec {
	e := NewEngine(WithScheduler(kind))
	var fired []fireRec
	var refs []EventRef
	id := 0
	handler := func(myID int, depth int) func(*Engine) {
		return func(en *Engine) {
			fired = append(fired, fireRec{en.Now(), myID})
			if depth > 0 && myID%3 == 0 {
				// Follow-up at the same instant and a short hop ahead.
				en.AfterFunc(0, call, Payload{Obj: func(en *Engine) {
					fired = append(fired, fireRec{en.Now(), -myID})
				}})
			}
		}
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			refs = append(refs, e.AfterFunc(op.delay, call, Payload{Obj: handler(id, 1)}))
			id++
		case 1:
			if len(refs) > 0 {
				refs[op.target%len(refs)].Cancel()
			}
		case 2:
			e.RunUntil(e.Now().Add(op.delay))
		}
	}
	e.Run()
	return fired
}

// TestSchedulerCrossCheck is the backend-equivalence property test: for
// randomized schedule/cancel/run-until traces, the wheel must produce the
// exact firing sequence the heap does. Any divergence breaks bit-identical
// runs and fails here before it can corrupt an experiment.
func TestSchedulerCrossCheck(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ops := genTrace(seed, 400)
			heapTrace := applyTrace(SchedulerHeap, ops)
			wheelTrace := applyTrace(SchedulerWheel, ops)
			if len(heapTrace) != len(wheelTrace) {
				t.Fatalf("heap fired %d events, wheel fired %d", len(heapTrace), len(wheelTrace))
			}
			for i := range heapTrace {
				if heapTrace[i] != wheelTrace[i] {
					t.Fatalf("traces diverge at event %d: heap %+v, wheel %+v",
						i, heapTrace[i], wheelTrace[i])
				}
			}
		})
	}
}

// TestWheelHugeDelays exercises the top wheel levels: delays near the int64
// limit must file, cascade and fire without overflow.
func TestWheelHugeDelays(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var got []Time
		far := Time(1) << 62
		e.AtFunc(far, call, Payload{Obj: func(en *Engine) { got = append(got, en.Now()) }})
		e.AtFunc(far+1, call, Payload{Obj: func(en *Engine) { got = append(got, en.Now()) }})
		e.AtFunc(3, call, Payload{Obj: func(en *Engine) { got = append(got, en.Now()) }})
		e.Run()
		if len(got) != 3 || got[0] != 3 || got[1] != far || got[2] != far+1 {
			t.Fatalf("got %v, want [3 %d %d]", got, far, far+1)
		}
	})
}

// TestHeapPopClearsTail pins three properties of the heap's value-entry
// array: a popped slot beyond len no longer references its event cell, nor
// does the hole a lazy pop leaves at the root, and cancelled cells stay
// counted by Pending until the run loop drains them. NewEngine's calendar
// is the heap, or the assertion below panics.
func TestHeapPopClearsTail(t *testing.T) {
	e := NewEngine()
	h := e.sched.(*heapScheduler)
	var refs []EventRef
	for i := 0; i < 16; i++ {
		refs = append(refs, e.AtFunc(Time(10+i), call, Payload{Obj: func(*Engine) {}}))
	}
	for _, r := range refs[8:] {
		r.Cancel()
	}
	e.AtFunc(5, call, Payload{Obj: func(en *Engine) { en.Stop() }})
	e.RunUntil(17)
	// Stop from a handler that scheduled nothing leaves the hole open.
	if h.hole != 1 || h.q[0].ev != nil {
		t.Fatalf("after Stop: hole %d, root %+v, want an open hole holding no cell", h.hole, h.q[0])
	}
	if e.Pending() != 16 {
		t.Fatalf("Pending() = %d with the hole open and 8 cancelled cells undrained, want 16", e.Pending())
	}
	e.RunUntil(17)
	if e.Pending() != 8 || e.Fired() != 9 || e.Canceled() != 0 {
		t.Fatalf("after RunUntil(17): pending %d fired %d canceled %d, want 8 9 0",
			e.Pending(), e.Fired(), e.Canceled())
	}
	e.Run()
	if e.Pending() != 0 || e.Canceled() != 8 {
		t.Fatalf("after Run: pending %d canceled %d, want 0 8", e.Pending(), e.Canceled())
	}
	for i, ent := range h.q[:cap(h.q)] {
		if ent != (heapEntry{}) {
			t.Fatalf("slot %d beyond len still holds %+v", i, ent)
		}
	}
}

// TestSiftDownPicksSmallerChild checks the borrow-chain child choice against
// before at the corners of the key space: time zero, equal times (seq
// decides), the end of time, and seqs with the top bit set.
func TestSiftDownPicksSmallerChild(t *testing.T) {
	var keys []heapEntry
	for _, at := range []Time{0, 1, maxTime - 1, maxTime} {
		for _, seq := range []uint64{0, 1, 1 << 63, 1<<64 - 2} {
			keys = append(keys, heapEntry{at: at, seq: seq})
		}
	}
	sinker := heapEntry{at: maxTime, seq: 1<<64 - 1}
	for _, l := range keys {
		for _, r := range keys {
			if l == r {
				continue
			}
			q := []heapEntry{{}, l, r}
			siftDown(q, sinker)
			want := l
			if r.before(&l) {
				want = r
			}
			if q[0] != want {
				t.Errorf("children %+v, %+v: %+v rose, want %+v", l, r, q[0], want)
			}
		}
	}
}

// benchWorkload drives n events through an engine: a self-rescheduling
// chain per source, mimicking the port-transmit pattern that dominates real
// experiments. Returns the engine so callers can assert on Fired.
func benchWorkload(kind SchedulerKind, sources, events int) *Engine {
	e := NewEngine(WithScheduler(kind))
	perSource := events / sources
	for s := 0; s < sources; s++ {
		c := &benchChain{gap: Duration(700 + 13*s), left: perSource}
		e.AfterFunc(c.gap, benchChainTick, Payload{Obj: c})
	}
	e.Run()
	return e
}

// benchChain is one source of benchWorkload: it fires left more times, gap
// apart.
type benchChain struct {
	gap  Duration
	left int
}

func benchChainTick(e *Engine, p Payload) {
	c := p.Obj.(*benchChain)
	c.left--
	if c.left > 0 {
		e.AfterFunc(c.gap, benchChainTick, p)
	}
}

// BenchmarkScheduler measures the engine hot path (schedule + fire) per
// backend. The allocs/op figure is the ISSUE acceptance metric: pooled
// cells must cut it by ≥ 20% versus the pre-pool baseline (~1 alloc/event).
func BenchmarkScheduler(b *testing.B) {
	for _, kind := range backends {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchWorkload(kind, 8, 1000)
			}
		})
	}
}

// BenchmarkSchedulerMixedHorizon spreads delays across wheel levels
// (ns to seconds) so the wheel's cascade path is exercised, not just its
// level-0 fast path.
func BenchmarkSchedulerMixedHorizon(b *testing.B) {
	for _, kind := range backends {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(7))
			delays := make([]Duration, 1024)
			for i := range delays {
				delays[i] = Duration(rng.Int63n(1 << uint(10+3*(i%10))))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := NewEngine(WithScheduler(kind))
				for j, d := range delays {
					j := j
					e.AfterFunc(d, call, Payload{Obj: func(en *Engine) {
						if j%2 == 0 {
							en.AfterFunc(delays[j%len(delays)], call, Payload{Obj: func(*Engine) {}})
						}
					}})
				}
				e.Run()
			}
		})
	}
}
