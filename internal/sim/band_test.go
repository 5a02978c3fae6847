package sim

import (
	"math/rand"
	"strings"
	"testing"
)

// bandProbe is a link-shaped component for the band tests: a transmit event
// every gap puts a delivery delay later on the engine's band for that delay,
// the way atmnet.Link does; deliveries are logged with the counters an
// observer could read.
type bandProbe struct {
	bands bool // false: deliveries go through AfterFunc instead
	gap   Duration
	delay Duration
	left  int
	log   []bandProbeRec
}

type bandProbeRec struct {
	at        Time
	pending   int
	scheduled uint64
	fired     uint64
}

func bandProbeTx(e *Engine, p Payload) {
	pr := p.Obj.(*bandProbe)
	if pr.bands {
		e.Band(pr.delay).After(bandProbeDeliver, pr)
	} else {
		e.AfterFunc(pr.delay, bandProbeDeliver, p)
	}
	if pr.left--; pr.left > 0 {
		e.AfterFunc(pr.gap, bandProbeTx, p)
	}
}

func bandProbeDeliver(e *Engine, p Payload) {
	pr := p.Obj.(*bandProbe)
	pr.log = append(pr.log, bandProbeRec{e.Now(), e.Pending(), e.Scheduled(), e.Fired()})
}

// TestBandMatchesAfterFunc runs a random script of link-shaped components —
// a handful of gaps, so transmissions coincide; three delays, one of them
// zero, so several components share each band and same-instant deliveries
// are ordered by seq alone — once over bands and once over AfterFunc, in two
// legs: every delivery must see the same clock, Pending, Scheduled and Fired.
func TestBandMatchesAfterFunc(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		run := func(bands bool) ([]*bandProbe, *Engine) {
			rng := rand.New(rand.NewSource(24))
			e := newEngine()
			var probes []*bandProbe
			for i := 0; i < 12; i++ {
				pr := &bandProbe{
					bands: bands,
					gap:   Duration(7 * (1 + rng.Intn(4))),
					delay: []Duration{0, 200, 333}[rng.Intn(3)],
					left:  40,
				}
				probes = append(probes, pr)
				e.AfterFunc(Duration(rng.Intn(3)), bandProbeTx, Payload{Obj: pr})
			}
			e.RunUntil(500)
			e.Run()
			return probes, e
		}
		want, we := run(false)
		got, ge := run(true)
		if ge.Fired() != we.Fired() || ge.Scheduled() != we.Scheduled() || ge.Now() != we.Now() {
			t.Fatalf("bands: fired %d scheduled %d now %v; AfterFunc: %d %d %v",
				ge.Fired(), ge.Scheduled(), ge.Now(), we.Fired(), we.Scheduled(), we.Now())
		}
		for i := range want {
			if len(got[i].log) != 40 || len(want[i].log) != 40 {
				t.Fatalf("probe %d: %d deliveries over the band, %d over AfterFunc, want 40", i, len(got[i].log), len(want[i].log))
			}
			for j := range want[i].log {
				if got[i].log[j] != want[i].log[j] {
					t.Fatalf("probe %d delivery %d: band %+v, AfterFunc %+v", i, j, got[i].log[j], want[i].log[j])
				}
			}
		}
	})
}

// TestBandKeepsCalendarSmall: what bands are for. 150 components with an
// event pending each, on four delays, cost the calendar four entries.
func TestBandKeepsCalendarSmall(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		fired := 0
		for i := 0; i < 150; i++ {
			e.Band(Duration(10*(1+i%4))).After(func(*Engine, Payload) { fired++ }, nil)
		}
		if n := e.sched.Len(); n != 4 {
			t.Errorf("the calendar holds %d entries, want 4", n)
		}
		if n := e.Pending(); n != 150 {
			t.Errorf("Pending() = %d, want 150", n)
		}
		if n := e.Run(); n != 150 || fired != 150 || e.Pending() != 0 {
			t.Errorf("Run fired %d events (handlers saw %d) and left %d pending, want 150 150 0", n, fired, e.Pending())
		}
	})
}

// TestBandCellNeverPooled: the run loop must not recycle a band's permanent
// cell, or alloc would hand it to an unrelated event while the band still
// refiles it.
func TestBandCellNeverPooled(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		fired := 0
		b := e.Band(3)
		for i := 0; i < 5; i++ {
			b.After(func(*Engine, Payload) { fired++ }, nil)
		}
		e.AtFunc(2, call, Payload{Obj: func(*Engine) {}})
		e.Run()
		if fired != 5 {
			t.Fatalf("band fired %d events, want 5", fired)
		}
		if len(e.free) == 0 {
			t.Fatal("no cell came back to the pool: the test is not looking at anything")
		}
		// alloc hands out nothing but the free list's cells and new ones.
		for _, c := range e.free {
			if c == &b.ev {
				t.Fatal("the band's cell is on the free list")
			}
		}
	})
}

// TestBandAllocs: once the band's ring has grown to the peak number of
// events in flight, scheduling on it and firing allocate nothing.
func TestBandAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		b := e.Band(100)
		obj := &bandProbe{}
		f := func() {
			for i := 0; i < 20; i++ {
				b.After(func(*Engine, Payload) {}, obj)
			}
			e.RunUntil(e.Now().Add(200))
		}
		f() // warm the ring
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%v allocs per 20 events, want 0", n)
		}
	})
}

func TestBandPanics(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), want) {
				t.Errorf("%s: recovered %v, want a panic containing %q", name, r, want)
			}
		}()
		f()
	}
	e := NewEngine()
	mustPanic("negative delay", "negative band delay", func() { e.Band(-1) })
	b := e.Band(10)
	if b.Delay() != 10 || e.Band(10) != b || e.Band(0) == b {
		t.Fatalf("Band(10) twice gave two bands, or Band(0) the same one; Delay() = %v", b.Delay())
	}
	mustPanic("nil handler", "nil handler", func() { b.After(nil, nil) })
	e.RunUntil(5)
	mustPanic("past the end of time", "before now", func() { e.Band(Duration(maxTime)).After(func(*Engine, Payload) {}, nil) })
	// The refused events took no seq and left the bands as they were.
	if e.Scheduled() != 0 || e.Pending() != 0 {
		t.Fatalf("scheduled %d pending %d after the refused calls, want 0 0", e.Scheduled(), e.Pending())
	}
	b.After(func(*Engine, Payload) {}, nil)
	b.After(func(*Engine, Payload) {}, nil)
	if n := e.Run(); n != 2 || e.Now() != 15 {
		t.Fatalf("fired %d events and stopped at %v, want 2 at 15", n, e.Now())
	}
}
