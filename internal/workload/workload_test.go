package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a2 := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(7)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn(5) only produced %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(3.0)
	}
	mean := sum / n
	if math.Abs(mean-3.0) > 0.05 {
		t.Fatalf("Exp mean = %v, want ≈3.0", mean)
	}
}

func TestGreedyPattern(t *testing.T) {
	var p Pattern = Greedy{}
	if !p.ActiveAt(0) || !p.ActiveAt(1e9) {
		t.Fatal("greedy must always be active")
	}
	if _, ok := p.NextChange(0); ok {
		t.Fatal("greedy must never change")
	}
}

func TestWindowPattern(t *testing.T) {
	w := Window{Start: 100, Stop: 200}
	cases := []struct {
		t      sim.Time
		active bool
	}{{0, false}, {99, false}, {100, true}, {199, true}, {200, false}, {300, false}}
	for _, c := range cases {
		if w.ActiveAt(c.t) != c.active {
			t.Errorf("ActiveAt(%d) = %v, want %v", c.t, !c.active, c.active)
		}
	}
	if next, ok := w.NextChange(0); !ok || next != 100 {
		t.Fatalf("NextChange(0) = %v,%v", next, ok)
	}
	if next, ok := w.NextChange(150); !ok || next != 200 {
		t.Fatalf("NextChange(150) = %v,%v", next, ok)
	}
	if _, ok := w.NextChange(250); ok {
		t.Fatal("window should end")
	}
	// Open-ended window.
	open := Window{Start: 50}
	if !open.ActiveAt(1e12) {
		t.Fatal("open window should stay active")
	}
	if _, ok := open.NextChange(60); ok {
		t.Fatal("open window never changes after start")
	}
}

func TestPeriodicOnOff(t *testing.T) {
	p := PeriodicOnOff{Start: 0, On: 10, Off: 5}
	cases := []struct {
		t      sim.Time
		active bool
	}{{0, true}, {9, true}, {10, false}, {14, false}, {15, true}, {24, true}, {25, false}}
	for _, c := range cases {
		if p.ActiveAt(c.t) != c.active {
			t.Errorf("ActiveAt(%d) = %v, want %v", c.t, !c.active, c.active)
		}
	}
	if next, ok := p.NextChange(0); !ok || next != 10 {
		t.Fatalf("NextChange(0) = %v,%v, want 10", next, ok)
	}
	if next, ok := p.NextChange(12); !ok || next != 15 {
		t.Fatalf("NextChange(12) = %v,%v, want 15", next, ok)
	}
}

func TestPeriodicOnOffNoOffPhase(t *testing.T) {
	p := PeriodicOnOff{Start: 5, On: 10, Off: 0}
	if p.ActiveAt(4) {
		t.Fatal("active before start")
	}
	if !p.ActiveAt(1e9) {
		t.Fatal("with zero Off the source should stay on")
	}
	if _, ok := p.NextChange(6); ok {
		t.Fatal("no further change expected")
	}
}

// Property: NextChange must return a time strictly in the future at which
// ActiveAt actually flips, for all pattern types.
func TestNextChangeConsistencyProperty(t *testing.T) {
	patterns := []Pattern{
		Greedy{},
		Window{Start: 1000, Stop: 5000},
		Window{Start: 2000},
		PeriodicOnOff{Start: 500, On: 700, Off: 300},
		NewRandomOnOff(99, 0, 1000, 500, 1<<20),
	}
	f := func(raw uint32) bool {
		tm := sim.Time(raw)
		for _, p := range patterns {
			now := p.ActiveAt(tm)
			next, ok := p.NextChange(tm)
			if !ok {
				continue
			}
			if next <= tm {
				return false
			}
			if p.ActiveAt(next) == now {
				return false // claimed transition did not flip activity
			}
			// No flip strictly between tm and next (sample a few points).
			span := next - tm
			for i := 1; i <= 4; i++ {
				mid := tm + span*sim.Time(i)/5
				if mid > tm && mid < next && p.ActiveAt(mid) != now {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomOnOffDeterminism(t *testing.T) {
	a := NewRandomOnOff(5, 0, 1000, 1000, 1<<16)
	b := NewRandomOnOff(5, 0, 1000, 1000, 1<<16)
	for tm := sim.Time(0); tm < 1<<16; tm += 97 {
		if a.ActiveAt(tm) != b.ActiveAt(tm) {
			t.Fatal("same-seed RandomOnOff diverged")
		}
	}
}

func TestRandomOnOffStartsOnAtStart(t *testing.T) {
	p := NewRandomOnOff(5, 100, 1000, 1000, 1<<16)
	if p.ActiveAt(50) {
		t.Fatal("active before start")
	}
	if !p.ActiveAt(100) {
		t.Fatal("must be active at start")
	}
}

func TestRandomOnOffDutyCycle(t *testing.T) {
	// meanOn = meanOff ⇒ duty cycle ≈ 50%.
	p := NewRandomOnOff(21, 0, sim.Duration(1*sim.Millisecond), sim.Duration(1*sim.Millisecond), sim.Time(10*sim.Second))
	on := 0
	total := 0
	for tm := sim.Time(0); tm < sim.Time(10*sim.Second); tm += sim.Time(50 * sim.Microsecond) {
		total++
		if p.ActiveAt(tm) {
			on++
		}
	}
	duty := float64(on) / float64(total)
	if duty < 0.40 || duty > 0.60 {
		t.Fatalf("duty cycle = %v, want ≈0.5", duty)
	}
}
