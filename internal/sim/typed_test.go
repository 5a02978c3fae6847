package sim

import "testing"

// forBackends runs the test under both scheduler backends; the typed API
// must behave identically on each.
func forBackends(t *testing.T, f func(t *testing.T, e *Engine)) {
	t.Helper()
	for _, kind := range backends {
		t.Run(string(kind), func(t *testing.T) {
			f(t, NewEngine(WithScheduler(kind)))
		})
	}
}

// TestTypedPayloadDelivery checks AtFunc hands back the exact payload.
func TestTypedPayloadDelivery(t *testing.T) {
	forBackends(t, func(t *testing.T, e *Engine) {
		type thing struct{ id int }
		obj := &thing{id: 7}
		var got Payload
		e.AtFunc(5, func(_ *Engine, p Payload) { got = p }, Payload{Obj: obj, I: 42, F: 2.5})
		e.Run()
		if got.Obj != obj || got.I != 42 || got.F != 2.5 {
			t.Fatalf("payload = %+v, want Obj=%p I=42 F=2.5", got, obj)
		}
	})
}

// TestTypedCancel checks typed events honor EventRef.Cancel.
func TestTypedCancel(t *testing.T) {
	forBackends(t, func(t *testing.T, e *Engine) {
		fired := false
		ref := e.AfterFunc(10, func(*Engine, Payload) { fired = true }, Payload{})
		if !ref.Cancel() {
			t.Fatal("Cancel reported no transition")
		}
		e.Run()
		if fired {
			t.Fatal("cancelled typed event fired")
		}
	})
}

// TestTypedPayloadClearedOnRecycle checks a fired event's cell does not pin
// its handler or payload object: the recycled cell must carry neither into
// its next event.
func TestTypedPayloadClearedOnRecycle(t *testing.T) {
	forBackends(t, func(t *testing.T, e *Engine) {
		obj := &struct{ x int }{}
		e.AtFunc(1, func(*Engine, Payload) {}, Payload{Obj: obj})
		e.Run()
		// The pooled cell must have been scrubbed.
		if len(e.free) == 0 {
			t.Fatal("no cell returned to the pool")
		}
		for _, ev := range e.free {
			if ev.fn != nil || ev.payload != (Payload{}) {
				t.Fatal("recycled cell retains handler or payload")
			}
		}
	})
}

// TestTypedSchedulingFromHandler checks re-arming from inside a typed
// handler (the data plane's steady state: every transmit schedules the
// next) and that the engine clock is correct at each dispatch.
func TestTypedSchedulingFromHandler(t *testing.T) {
	forBackends(t, func(t *testing.T, e *Engine) {
		var times []Time
		var tick TypedHandler
		tick = func(en *Engine, p Payload) {
			times = append(times, en.Now())
			if p.I > 0 {
				en.AfterFunc(5, tick, Payload{I: p.I - 1})
			}
		}
		e.AfterFunc(5, tick, Payload{I: 3})
		e.Run()
		want := []Time{5, 10, 15, 20}
		if len(times) != len(want) {
			t.Fatalf("fired %d times, want %d", len(times), len(want))
		}
		for i := range want {
			if times[i] != want[i] {
				t.Fatalf("times = %v, want %v", times, want)
			}
		}
	})
}

// TestTypedNilHandlerPanics: AtFunc refuses a nil handler.
func TestTypedNilHandlerPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("AtFunc(nil) did not panic")
		}
	}()
	e.AtFunc(1, nil, Payload{})
}

// TestTypedSteadyStateAllocFree pins the tentpole property: once the pool
// is warm, a self-rescheduling typed event allocates nothing per event.
func TestTypedSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	forBackends(t, func(t *testing.T, e *Engine) {
		n := 0
		var tick TypedHandler
		tick = func(en *Engine, p Payload) {
			n++
			if n < 1000 {
				en.AfterFunc(7, tick, p)
			}
		}
		// Warm up pool and wheel cursor.
		e.AfterFunc(7, tick, Payload{Obj: e})
		e.Run()
		n = 0
		allocs := testing.AllocsPerRun(100, func() {
			n = 0
			e.AfterFunc(7, tick, Payload{Obj: e})
			e.Run()
		})
		// 1000 events per run; allow a fraction of an alloc per run for
		// incidental slack (free-list growth), not per event.
		if allocs > 8 {
			t.Fatalf("steady-state run allocated %.1f times (1000 events), want ~0", allocs)
		}
	})
}
