package sim

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestTimerLifecycle walks one timer through the states its tracked cell
// can be in and checks, under both backends, what an observer may rely on:
// a pop that is not the timer's deadline fires nothing and leaves the clock
// alone, an earlier deadline fires on time, and Canceled counts an arming
// when it is superseded.
func TestTimerLifecycle(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var fires []Time
		tm := e.NewTimer(func(e *Engine, _ Payload) { fires = append(fires, e.Now()) }, Payload{})
		check := func(step string, pending int, fired, canceled uint64, armed bool) {
			t.Helper()
			if e.Pending() != pending || e.Fired() != fired || e.Canceled() != canceled || tm.Armed() != armed {
				t.Fatalf("%s: pending %d fired %d canceled %d armed %v, want %d %d %d %v",
					step, e.Pending(), e.Fired(), e.Canceled(), tm.Armed(), pending, fired, canceled, armed)
			}
		}
		check("new", 0, 0, 0, false)
		tm.Stop()
		check("stop of a stopped timer", 0, 0, 0, false)

		tm.Reset(100)
		e.RunUntil(50)
		tm.Reset(100) // deadline 150 over the cell at 100
		check("re-armed in place", 1, 0, 1, true)
		e.RunUntil(120) // the cell is popped at 100 and moved to 150
		check("stale pop", 1, 0, 1, true)
		e.RunUntil(200)
		check("fired", 0, 1, 1, false)

		tm.Reset(1000) // 1200
		tm.Reset(10)   // 210: the cell at 1200 is orphaned
		check("earlier deadline", 2, 1, 2, true)
		e.RunUntil(300)
		check("fired early", 1, 2, 2, false)

		tm.Reset(50) // 350, a new tracked cell; the orphan is still at 1200
		tm.Stop()
		check("stopped", 2, 2, 3, false)
		tm.Reset(100) // 400 over the stopped timer's cell at 350
		check("stopped, re-armed", 2, 2, 3, true)
		e.RunUntil(500)
		check("fired after stop", 1, 3, 3, false)

		// Only the orphan is left. Draining it is not an event: Run ends
		// with the clock where RunUntil left it.
		if e.Run() != 0 || e.Now() != 500 {
			t.Fatalf("draining the orphan: clock %v, want 500 and nothing fired", e.Now())
		}
		check("drained", 0, 3, 3, false)
		if want := []Time{150, 210, 400}; !slices.Equal(fires, want) {
			t.Fatalf("fired at %v, want %v", fires, want)
		}
		if e.Scheduled() != 6 {
			t.Fatalf("Scheduled() = %d, want 6: one per Reset", e.Scheduled())
		}
	})
}

// timerSpelling is a restartable one-shot: a Timer, or the EventRef idiom
// the Timer replaced.
type timerSpelling interface {
	reset(d Duration)
	stop()
}

type timerAsTimer struct{ t *Timer }

func (s timerAsTimer) reset(d Duration) { s.t.Reset(d) }
func (s timerAsTimer) stop()            { s.t.Stop() }

type timerAsRef struct {
	e   *Engine
	fn  TypedHandler
	p   Payload
	ref EventRef
}

func (s *timerAsRef) reset(d Duration) {
	s.ref.Cancel()
	s.ref = s.e.AfterFunc(d, s.fn, s.p)
}
func (s *timerAsRef) stop() { s.ref.Cancel() }

// TestTimerMatchesCancelAfterFunc runs one random script of Resets and Stops
// — from outside the run and from handlers, the timers' own included, with
// delays drawn from a few values so that deadlines collide with one another
// and with plain events — against Timers and against Cancel+AfterFunc, and
// requires the same firings at the same instants in the same order, and the
// same Fired, Scheduled and, once every tombstone is drained, Canceled.
func TestTimerMatchesCancelAfterFunc(t *testing.T) {
	type rec struct {
		at  Time
		who int
	}
	const nTimers, nOps = 6, 4000
	delays := []Duration{0, 1, 7, 7, 50, 200, 200, 1000}
	run := func(kind SchedulerKind, asTimer bool, seed int64) ([]rec, [3]uint64) {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(WithScheduler(kind))
		var log []rec
		timers := make([]timerSpelling, nTimers)
		act := func(e *Engine) {
			k, d := rng.Intn(nTimers), delays[rng.Intn(len(delays))]
			switch rng.Intn(4) {
			case 0:
				timers[k].stop()
			case 1:
				timers[k].stop()
				timers[k].reset(d)
			default:
				timers[k].reset(d)
			}
		}
		fire := func(e *Engine, p Payload) {
			log = append(log, rec{e.Now(), int(p.I)})
			if rng.Intn(3) == 0 {
				act(e) // may re-arm the timer that is firing
			}
		}
		for k := range timers {
			p := Payload{I: int64(k)}
			if asTimer {
				timers[k] = timerAsTimer{e.NewTimer(fire, p)}
			} else {
				timers[k] = &timerAsRef{e: e, fn: fire, p: p}
			}
		}
		for i := 0; i < nOps; i++ {
			switch rng.Intn(4) {
			case 0:
				e.RunUntil(e.Now().Add(delays[rng.Intn(len(delays))]))
			case 1:
				// A plain event that logs, and one that acts from a handler.
				e.AfterFunc(delays[rng.Intn(len(delays))], call, Payload{Obj: func(e *Engine) { log = append(log, rec{e.Now(), -1}) }})
				e.AfterFunc(delays[rng.Intn(len(delays))], call, Payload{Obj: act})
			default:
				act(e)
			}
		}
		e.Run()
		return log, [3]uint64{e.Fired(), e.Scheduled(), e.Canceled()}
	}
	for seed := int64(1); seed <= 20; seed++ {
		want, wantCounts := run(SchedulerHeap, false, seed)
		if wantCounts[2] == 0 || len(want) < nOps/4 {
			t.Fatalf("seed %d: script too tame: %d firings, %d cancels", seed, len(want), wantCounts[2])
		}
		for _, kind := range backends {
			got, counts := run(kind, true, seed)
			if counts != wantCounts {
				t.Fatalf("seed %d %s: fired/scheduled/canceled %v, Cancel+AfterFunc %v", seed, kind, counts, wantCounts)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d firings, Cancel+AfterFunc %d", seed, kind, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s: firing %d is %+v, Cancel+AfterFunc %+v", seed, kind, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTimerResetAllocs: re-arming allocates nothing, and neither does a
// whole arm–fire cycle once the engine's cell pool is warm.
func TestTimerResetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		tm := e.NewTimer(func(*Engine, Payload) {}, Payload{})
		tm.Reset(100)
		for name, f := range map[string]func(){
			"Reset":            func() { tm.Reset(100) },
			"Stop, Reset":      func() { tm.Stop(); tm.Reset(100) },
			"earlier, later":   func() { tm.Reset(10); tm.Reset(100); e.RunUntil(e.Now().Add(1)) },
			"Reset, fire":      func() { tm.Reset(5); e.RunUntil(e.Now().Add(200)) },
			"Reset, stale pop": func() { tm.Reset(100); e.RunUntil(e.Now().Add(60)) },
		} {
			f() // warm the pool and the calendar for this shape
			if n := testing.AllocsPerRun(200, f); n != 0 {
				t.Errorf("%s: %v allocs per run, want 0", name, n)
			}
		}
	})
}

// TestEventCellSize holds the pooled cell to its size class: the timer's
// flag shares the word the cancel flag already had, and its back-pointer
// rides in the payload.
func TestEventCellSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 112 {
		t.Errorf("event is %d bytes, want at most 112", n)
	}
}

func TestTimerPanics(t *testing.T) {
	e := NewEngine()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("nil handler", func() { e.NewTimer(nil, Payload{}) })
	tm := e.NewTimer(func(*Engine, Payload) {}, Payload{})
	mustPanic("negative delay", func() { tm.Reset(-1) })
	if tm.Armed() || e.Scheduled() != 0 {
		t.Errorf("a refused Reset armed the timer or drew a seq")
	}
}
