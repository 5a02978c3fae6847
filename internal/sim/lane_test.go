package sim

import (
	"strings"
	"testing"
)

// laneProbe is a link-shaped component for the lane tests: a transmit event
// every gap puts a delivery delay later on the lane, the way atmnet.Link
// does; deliveries are logged with the counters an observer could read.
type laneProbe struct {
	lane  *Lane // nil: deliveries go through AfterFunc instead
	gap   Duration
	delay Duration
	left  int
	log   []laneProbeRec
}

type laneProbeRec struct {
	at        Time
	pending   int
	scheduled uint64
	fired     uint64
}

func laneProbeTx(e *Engine, p Payload) {
	pr := p.Obj.(*laneProbe)
	if pr.lane != nil {
		pr.lane.After(pr.delay)
	} else {
		e.AfterFunc(pr.delay, laneProbeDeliver, p)
	}
	if pr.left--; pr.left > 0 {
		e.AfterFunc(pr.gap, laneProbeTx, p)
	}
}

func laneProbeDeliver(e *Engine, p Payload) {
	pr := p.Obj.(*laneProbe)
	pr.log = append(pr.log, laneProbeRec{e.Now(), e.Pending(), e.Scheduled(), e.Fired()})
}

// TestLaneMatchesAfterFunc runs three links' worth of traffic, seven cells
// in flight each, once over lanes and once over AfterFunc, in two legs:
// every delivery must see the same clock, Pending, Scheduled and Fired.
func TestLaneMatchesAfterFunc(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		run := func(lanes bool) ([]*laneProbe, *Engine) {
			e := newEngine()
			var probes []*laneProbe
			for i := 0; i < 3; i++ {
				pr := &laneProbe{gap: Duration(28 + i), delay: 200, left: 40}
				if lanes {
					pr.lane = e.NewLane(laneProbeDeliver, Payload{Obj: pr})
				}
				probes = append(probes, pr)
				e.AfterFunc(pr.gap, laneProbeTx, Payload{Obj: pr})
			}
			e.RunUntil(500)
			e.Run()
			return probes, e
		}
		want, we := run(false)
		got, ge := run(true)
		if ge.Fired() != we.Fired() || ge.Scheduled() != we.Scheduled() || ge.Now() != we.Now() {
			t.Fatalf("lanes: fired %d scheduled %d now %v; AfterFunc: %d %d %v",
				ge.Fired(), ge.Scheduled(), ge.Now(), we.Fired(), we.Scheduled(), we.Now())
		}
		for i := range want {
			if len(got[i].log) != 40 || len(want[i].log) != 40 {
				t.Fatalf("probe %d: %d deliveries over the lane, %d over AfterFunc, want 40", i, len(got[i].log), len(want[i].log))
			}
			for j := range want[i].log {
				if got[i].log[j] != want[i].log[j] {
					t.Fatalf("probe %d delivery %d: lane %+v, AfterFunc %+v", i, j, got[i].log[j], want[i].log[j])
				}
			}
		}
	})
}

// TestLaneCellNeverPooled: the run loop must not recycle a lane's permanent
// cell, or alloc would hand it to an unrelated event while the lane still
// refiles it.
func TestLaneCellNeverPooled(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		fired := 0
		ln := e.NewLane(func(*Engine, Payload) { fired++ }, Payload{})
		for i := 0; i < 5; i++ {
			ln.After(Duration(i))
		}
		e.At(2, func(*Engine) {})
		e.Run()
		if fired != 5 {
			t.Fatalf("lane fired %d events, want 5", fired)
		}
		if len(e.free) == 0 {
			t.Fatal("no cell came back to the pool: the test is not looking at anything")
		}
		// alloc hands out nothing but the free list's cells and new ones.
		for _, c := range e.free {
			if c == &ln.ev {
				t.Fatal("the lane's cell is on the free list")
			}
		}
	})
}

func TestLanePanics(t *testing.T) {
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
	mustPanic("nil handler", "nil handler", func() { e.NewLane(nil, Payload{}) })
	ln := e.NewLane(func(*Engine, Payload) {}, Payload{})
	mustPanic("negative delay", "negative lane delay", func() { ln.After(-1) })
	ln.After(10)
	ln.After(10)
	if ln.Last() != 10 {
		t.Fatalf("Last() = %v, want 10", ln.Last())
	}
	mustPanic("backwards", "before its predecessor", func() { ln.After(9) })
	// The refused events took no seq and left the lane as it was.
	if e.Scheduled() != 2 || e.Pending() != 2 {
		t.Fatalf("scheduled %d pending %d after the refused calls, want 2 2", e.Scheduled(), e.Pending())
	}
	if n := e.Run(); n != 2 {
		t.Fatalf("fired %d, want 2", n)
	}
}
