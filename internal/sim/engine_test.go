package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// forEachScheduler runs the test body once per calendar backend: every
// engine behavior must hold under both, or the backends are not actually
// interchangeable.
func forEachScheduler(t *testing.T, body func(t *testing.T, newEngine func() *Engine)) {
	t.Helper()
	for _, kind := range backends {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			body(t, func() *Engine { return NewEngine(WithScheduler(kind)) })
		})
	}
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var got []int
		e.AtFunc(30, call, Payload{Obj: func(*Engine) { got = append(got, 3) }})
		e.AtFunc(10, call, Payload{Obj: func(*Engine) { got = append(got, 1) }})
		e.AtFunc(20, call, Payload{Obj: func(*Engine) { got = append(got, 2) }})
		e.Run()
		want := []int{1, 2, 3}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order = %v, want %v", got, want)
			}
		}
		if e.Now() != 30 {
			t.Fatalf("Now() = %v, want 30", e.Now())
		}
	})
}

func TestEngineTieBreakIsInsertionOrder(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var got []int
		for i := 0; i < 10; i++ {
			i := i
			e.AtFunc(5, call, Payload{Obj: func(*Engine) { got = append(got, i) }})
		}
		e.Run()
		for i := range got {
			if got[i] != i {
				t.Fatalf("same-time events fired out of insertion order: %v", got)
			}
		}
	})
}

// TestTieBreakAcrossWheelLevels pins the cross-level seq tie-break: two
// events for the same instant, the first scheduled far ahead (filed at a
// coarse wheel level) and the second scheduled at the last moment (filed at
// level 0), must still fire in insertion order. This is the case a naive
// wheel gets wrong by popping level 0 without cascading equal-time slots.
func TestTieBreakAcrossWheelLevels(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var got []int
		const target = Time(1 << 20)
		e.AtFunc(target, call, Payload{Obj: func(*Engine) { got = append(got, 0) }}) // coarse level
		e.AtFunc(target-3, call, Payload{Obj: func(en *Engine) {
			en.AtFunc(target, call, Payload{Obj: func(*Engine) { got = append(got, 2) }}) // level 0
			got = append(got, 1)
		}})
		e.AtFunc(target, call, Payload{Obj: func(*Engine) { got = append(got, 3) }}) // coarse level
		e.Run()
		want := []int{1, 0, 3, 2} // seq order at the shared instant: 0, 3, then 2
		if len(got) != len(want) {
			t.Fatalf("fired %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fired %v, want %v", got, want)
			}
		}
	})
}

func TestEngineSchedulingFromHandler(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var trace []Time
		e.AtFunc(10, call, Payload{Obj: func(en *Engine) {
			trace = append(trace, en.Now())
			en.AfterFunc(5, call, Payload{Obj: func(en *Engine) { trace = append(trace, en.Now()) }})
		}})
		e.Run()
		if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
			t.Fatalf("trace = %v, want [10 15]", trace)
		}
	})
}

func TestEngineZeroDelaySchedulingFromHandler(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var trace []int
		e.AtFunc(10, call, Payload{Obj: func(en *Engine) {
			trace = append(trace, 0)
			en.AfterFunc(0, call, Payload{Obj: func(*Engine) { trace = append(trace, 1) }})
			en.AtFunc(10, call, Payload{Obj: func(*Engine) { trace = append(trace, 2) }})
		}})
		e.AtFunc(10, call, Payload{Obj: func(*Engine) { trace = append(trace, 3) }})
		e.Run()
		want := []int{0, 3, 1, 2}
		if len(trace) != len(want) {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
		for i := range want {
			if trace[i] != want[i] {
				t.Fatalf("trace = %v, want %v", trace, want)
			}
		}
	})
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		e.AtFunc(10, call, Payload{Obj: func(en *Engine) {
			defer func() {
				if recover() == nil {
					t.Error("scheduling in the past did not panic")
				}
			}()
			en.AtFunc(5, call, Payload{Obj: func(*Engine) {}})
		}})
		e.Run()
	})
}

func TestEngineNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every with a nil handler did not panic")
		}
	}()
	NewEngine().Every(1, nil, Payload{})
}

func TestUnknownSchedulerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WithScheduler on an unknown kind did not panic")
		}
	}()
	NewEngine(WithScheduler(SchedulerKind("calendar")))
}

func TestEventCancel(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		fired := false
		ref := e.AtFunc(10, call, Payload{Obj: func(*Engine) { fired = true }})
		if !ref.Cancel() {
			t.Error("first Cancel returned false")
		}
		if ref.Cancel() {
			t.Error("second Cancel returned true")
		}
		e.Run()
		if fired {
			t.Error("cancelled event fired")
		}
		if (EventRef{}).Cancel() {
			t.Error("zero-ref Cancel returned true")
		}
	})
}

// TestCancelAfterDrain pins the expiry semantics: once an event has fired
// (or a cancelled cell has been drained by a run), its ref is stale and
// Cancel reports false instead of touching the recycled cell.
func TestCancelAfterDrain(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		ref := e.AtFunc(10, call, Payload{Obj: func(*Engine) {}})
		e.Run()
		if ref.Cancel() {
			t.Error("Cancel after the event fired returned true")
		}

		cancelled := e.AtFunc(20, call, Payload{Obj: func(*Engine) {}})
		cancelled.Cancel()
		e.RunUntil(30) // drains the cancelled cell
		if cancelled.Cancel() {
			t.Error("Cancel after the cancelled cell drained returned true")
		}
	})
}

// TestStaleRefDoesNotCancelRecycledCell is the pooling safety property: a
// ref left over from a fired event must not cancel the unrelated event that
// reuses its cell.
func TestStaleRefDoesNotCancelRecycledCell(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		stale := e.AtFunc(1, call, Payload{Obj: func(*Engine) {}})
		e.RunUntil(5)

		fired := false
		fresh := e.AtFunc(10, call, Payload{Obj: func(*Engine) { fired = true }}) // reuses the pooled cell
		if stale.Cancel() {
			t.Error("stale ref claimed to cancel")
		}
		e.Run()
		if !fired {
			t.Error("stale ref cancelled the recycled cell's new event")
		}
		_ = fresh
	})
}

// TestCancelFromSameInstant cancels an event from another event scheduled
// for the very same timestamp (earlier seq), under both backends.
func TestCancelFromSameInstant(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		fired := false
		var victim EventRef
		e.AtFunc(10, call, Payload{Obj: func(*Engine) { victim.Cancel() }})
		victim = e.AtFunc(10, call, Payload{Obj: func(*Engine) { fired = true }})
		e.Run()
		if fired {
			t.Error("event cancelled at its own instant still fired")
		}
	})
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		e.AtFunc(10, call, Payload{Obj: func(*Engine) {}})
		e.AtFunc(100, call, Payload{Obj: func(*Engine) {}})
		n := e.RunUntil(50)
		if n != 1 {
			t.Fatalf("fired %d events, want 1", n)
		}
		if e.Now() != 50 {
			t.Fatalf("Now() = %v, want 50", e.Now())
		}
		n = e.RunUntil(100)
		if n != 1 || e.Now() != 100 {
			t.Fatalf("second leg fired=%d now=%v, want 1, 100", n, e.Now())
		}
	})
}

// TestScheduleBetweenDeadlineAndNextEvent covers the deadline gap: after
// RunUntil stops short of the next pending event, new events may land in
// the gap and must still fire in order. (This is the case that forbids a
// wheel from advancing its cursor past the deadline while peeking.)
func TestScheduleBetweenDeadlineAndNextEvent(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var trace []Time
		rec := func(en *Engine) { trace = append(trace, en.Now()) }
		e.AtFunc(1000, call, Payload{Obj: rec})
		e.RunUntil(500)
		e.AtFunc(600, call, Payload{Obj: rec}) // between the deadline and the pending event
		e.Run()
		if len(trace) != 2 || trace[0] != 600 || trace[1] != 1000 {
			t.Fatalf("trace = %v, want [600 1000]", trace)
		}
	})
}

func TestRunUntilComposes(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		// Running in two legs must observe exactly the same events as one leg.
		build := func() (*Engine, *[]Time) {
			e := newEngine()
			var trace []Time
			for _, at := range []Time{5, 15, 25, 35} {
				at := at
				e.AtFunc(at, call, Payload{Obj: func(en *Engine) { trace = append(trace, en.Now()) }})
			}
			return e, &trace
		}
		e1, t1 := build()
		e1.RunUntil(40)
		e2, t2 := build()
		e2.RunUntil(20)
		e2.RunUntil(40)
		if len(*t1) != len(*t2) {
			t.Fatalf("split run saw %d events, single run saw %d", len(*t2), len(*t1))
		}
		for i := range *t1 {
			if (*t1)[i] != (*t2)[i] {
				t.Fatalf("split run diverged at %d: %v vs %v", i, *t1, *t2)
			}
		}
	})
}

func TestEveryTicksAndCancels(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var ticks []Time
		ref := e.Every(10, call, Payload{Obj: func(en *Engine) { ticks = append(ticks, en.Now()) }})
		e.RunUntil(45)
		if len(ticks) != 4 {
			t.Fatalf("got %d ticks, want 4: %v", len(ticks), ticks)
		}
		ref.Cancel()
		e.RunUntil(100)
		if len(ticks) != 4 {
			t.Fatalf("ticker kept firing after Cancel: %v", ticks)
		}
	})
}

func TestEveryCancelFromWithinTick(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		count := 0
		var ref EventRef
		ref = e.Every(10, call, Payload{Obj: func(*Engine) {
			count++
			if count == 3 {
				ref.Cancel()
			}
		}})
		e.RunUntil(1000)
		if count != 3 {
			t.Fatalf("count = %d, want 3", count)
		}
	})
}

// TestEveryCancelBetweenRuns cancels a ticker while the engine is parked
// between RunUntil legs: the already-scheduled next tick must be suppressed
// (it is drained, never fired), and no further ticks may appear.
func TestEveryCancelBetweenRuns(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		count := 0
		ref := e.Every(10, call, Payload{Obj: func(*Engine) { count++ }})
		e.RunUntil(35) // ticks at 10, 20, 30
		if count != 3 {
			t.Fatalf("count = %d before cancel, want 3", count)
		}
		if !ref.Cancel() {
			t.Fatal("Cancel on a live ticker returned false")
		}
		if ref.Cancel() {
			t.Fatal("second Cancel on the ticker returned true")
		}
		e.Run()
		if count != 3 {
			t.Fatalf("ticker fired after cancel-between-runs: count = %d", count)
		}
		if e.Pending() != 0 {
			t.Fatalf("cancelled ticker left %d pending events", e.Pending())
		}
	})
}

func TestStopHaltsRun(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		fired := 0
		e.AtFunc(10, call, Payload{Obj: func(en *Engine) { fired++; en.Stop() }})
		e.AtFunc(20, call, Payload{Obj: func(*Engine) { fired++ }})
		e.RunUntil(100)
		if fired != 1 {
			t.Fatalf("fired = %d, want 1 (Stop should halt)", fired)
		}
		// A subsequent run resumes.
		e.RunUntil(100)
		if fired != 2 {
			t.Fatalf("fired = %d after resume, want 2", fired)
		}
	})
}

// A run halted by Stop leaves events pending before the deadline, so the
// clock must stay where Stop left it: jumping to the deadline would make the
// next run fire them with Now() going backwards.
func TestRunUntilAfterStopKeepsClock(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var seen []Time
		e.AtFunc(10, call, Payload{Obj: func(en *Engine) { seen = append(seen, en.Now()); en.Stop() }})
		e.AtFunc(20, call, Payload{Obj: func(en *Engine) { seen = append(seen, en.Now()) }})
		e.RunUntil(100)
		if e.Now() != 10 {
			t.Fatalf("Now() = %d after Stop at 10, want 10 (event at 20 still pending)", e.Now())
		}
		e.Run()
		if len(seen) != 2 || seen[1] != 20 {
			t.Fatalf("handlers observed %v, want [10 20]", seen)
		}
		if e.Now() != 20 {
			t.Fatalf("Now() = %d after Run, want 20", e.Now())
		}
		// A deadline-ended run still lands on the deadline.
		e.RunUntil(100)
		if e.Now() != 100 {
			t.Fatalf("Now() = %d after RunUntil(100), want 100", e.Now())
		}
	})
}

func TestFiredCounter(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		for i := 0; i < 7; i++ {
			e.AtFunc(Time(i), call, Payload{Obj: func(*Engine) {}})
		}
		e.Run()
		if e.Fired() != 7 {
			t.Fatalf("Fired() = %d, want 7", e.Fired())
		}
	})
}

// Property: for any batch of events with random times, execution order is
// sorted by time with insertion order breaking ties.
func TestEventOrderProperty(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		f := func(times []uint16) bool {
			if len(times) == 0 {
				return true
			}
			e := newEngine()
			type rec struct {
				at  Time
				seq int
			}
			var got []rec
			for i, raw := range times {
				at := Time(raw)
				i := i
				e.AtFunc(at, call, Payload{Obj: func(en *Engine) { got = append(got, rec{en.Now(), i}) }})
			}
			e.Run()
			if len(got) != len(times) {
				return false
			}
			for i := 1; i < len(got); i++ {
				if got[i].at < got[i-1].at {
					return false
				}
				if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: interleaving random RunUntil deadlines never changes the set of
// fired events relative to a single full run.
func TestRunUntilSplitProperty(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		f := func(times []uint16, cutsRaw []uint16) bool {
			run := func(cuts []Time) []Time {
				e := newEngine()
				var trace []Time
				for _, raw := range times {
					at := Time(raw)
					e.AtFunc(at, call, Payload{Obj: func(en *Engine) { trace = append(trace, en.Now()) }})
				}
				for _, c := range cuts {
					e.RunUntil(c)
				}
				e.RunUntil(1 << 20)
				return trace
			}
			var cuts []Time
			for _, c := range cutsRaw {
				cuts = append(cuts, Time(c))
			}
			// RunUntil requires non-decreasing deadlines to be meaningful; sort.
			for i := 1; i < len(cuts); i++ {
				for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
					cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
				}
			}
			a, b := run(nil), run(cuts)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		}
		cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDurationOf(t *testing.T) {
	// 53-byte cell at 150 Mb/s: 424 bits / 150e6 ≈ 2.8267 µs.
	d := DurationOf(424, 150e6)
	if d < 2820 || d > 2830 {
		t.Fatalf("cell time = %v ns, want ≈2827", int64(d))
	}
	if DurationOf(100, 0) <= 0 {
		t.Fatal("zero rate should yield a huge positive duration")
	}
	if DurationOf(-5, 100) != 0 {
		t.Fatal("negative size should clamp to 0")
	}
}

func TestTimeHelpers(t *testing.T) {
	var tm Time = Time(5 * Millisecond)
	if tm.Seconds() != 0.005 {
		t.Fatalf("Seconds() = %v", tm.Seconds())
	}
	if tm.Add(-Duration(10*Millisecond)) != 0 {
		t.Fatal("Add should clamp below zero")
	}
	if tm.Sub(Time(2*Millisecond)) != 3*Millisecond {
		t.Fatal("Sub wrong")
	}
	if tm.String() != "5.000ms" {
		t.Fatalf("String() = %q", tm.String())
	}
}

// TestEngineReentrancyPanics pins the one-engine-per-goroutine contract's
// enforceable half: driving Run or RunUntil from inside an event handler is
// always a bug and must panic rather than interleave two event loops.
func TestEngineReentrancyPanics(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		panicked := false
		e.AtFunc(1, call, Payload{Obj: func(en *Engine) {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			en.RunUntil(10) // re-enter the running engine
		}})
		e.RunUntil(5)
		if !panicked {
			t.Fatal("re-entrant RunUntil did not panic")
		}
		// The engine stays usable after the recovered violation.
		fired := false
		e.AtFunc(6, call, Payload{Obj: func(*Engine) { fired = true }})
		e.RunUntil(10)
		if !fired {
			t.Fatal("engine wedged after recovered re-entrancy panic")
		}
	})
}

// TestPendingInsideHandler pins what a handler sees: its own event is no
// longer pending, whatever the calendar does with the slot it left.
func TestPendingInsideHandler(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var got []int
		for i := 0; i < 4; i++ {
			e.AtFunc(Time(10*(i+1)), call, Payload{Obj: func(en *Engine) {
				got = append(got, en.Pending())
				if en.Now() == 20 {
					en.AfterFunc(1, call, Payload{Obj: func(en *Engine) { got = append(got, en.Pending()) }})
					en.AfterFunc(0, call, Payload{Obj: func(en *Engine) { got = append(got, en.Pending()) }})
					got = append(got, en.Pending())
				}
			}})
		}
		e.Run()
		want := []int{3, 2, 4, 3, 2, 1, 0}
		if len(got) != len(want) {
			t.Fatalf("Pending() in handlers = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Pending() in handlers = %v, want %v", got, want)
			}
		}
	})
}

// TestRunAfterHandlerPanic: a handler panic the caller recovers from leaves
// the engine as Stop would — whatever the handler had scheduled is pending,
// the rest of the calendar is in order — and the next run carries on.
func TestRunAfterHandlerPanic(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		for _, scheduleFirst := range []bool{false, true} {
			e := newEngine()
			var trace []Time
			rec := func(en *Engine) { trace = append(trace, en.Now()) }
			e.AtFunc(10, call, Payload{Obj: func(en *Engine) {
				if scheduleFirst {
					en.AtFunc(25, call, Payload{Obj: rec})
				}
				panic("boom")
			}})
			e.AtFunc(20, call, Payload{Obj: rec})
			e.AtFunc(30, call, Payload{Obj: rec})
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("handler panic did not reach the caller")
					}
				}()
				e.RunUntil(100)
			}()
			e.AtFunc(15, call, Payload{Obj: rec})
			e.RunUntil(100)
			want := []Time{15, 20, 30}
			if scheduleFirst {
				want = []Time{15, 20, 25, 30}
			}
			if len(trace) != len(want) {
				t.Fatalf("scheduleFirst=%v: trace = %v, want %v", scheduleFirst, trace, want)
			}
			for i := range want {
				if trace[i] != want[i] {
					t.Fatalf("scheduleFirst=%v: trace = %v, want %v", scheduleFirst, trace, want)
				}
			}
			if e.Pending() != 0 || e.Now() != 100 {
				t.Fatalf("scheduleFirst=%v: pending %d now %v after the second run", scheduleFirst, e.Pending(), e.Now())
			}
		}
	})
}

// TestEngineStateFillsCacheLines holds the padding that keeps the engines
// of a sharded run apart: the words an engine writes on every event must
// not share a cache line with the next engine allocated. A size that is a
// multiple of 64 up to 512 is its own allocator size class, whose objects
// start on multiples of their size.
func TestEngineStateFillsCacheLines(t *testing.T) {
	for name, n := range map[string]uintptr{
		"Engine":        unsafe.Sizeof(Engine{}),
		"heapScheduler": unsafe.Sizeof(heapScheduler{}),
	} {
		if n%64 != 0 || n > 512 {
			t.Errorf("%s is %d bytes, want a multiple of 64 no larger than 512: adjust its padding", name, n)
		}
	}
}
