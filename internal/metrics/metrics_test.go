package metrics

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSeriesAddAndAt(t *testing.T) {
	s := NewSeries("q")
	s.Add(10, 1)
	s.Add(20, 2)
	s.Add(30, 3)
	cases := []struct {
		t sim.Time
		v float64
	}{{5, 0}, {10, 1}, {15, 1}, {20, 2}, {29, 2}, {30, 3}, {100, 3}}
	for _, c := range cases {
		if got := s.At(c.t); got != c.v {
			t.Errorf("At(%d) = %v, want %v", c.t, got, c.v)
		}
	}
	if s.Last() != 3 {
		t.Fatalf("Last() = %v", s.Last())
	}
	if len(s.points) != 3 {
		t.Fatalf("Len() = %d", len(s.points))
	}
}

func TestSeriesSameInstantReplaces(t *testing.T) {
	s := NewSeries("q")
	s.Add(10, 1)
	s.Add(10, 7)
	if len(s.points) != 1 || s.At(10) != 7 {
		t.Fatalf("same-instant add should replace: len=%d v=%v", len(s.points), s.At(10))
	}
}

func TestSeriesBackwardsTimePanics(t *testing.T) {
	s := NewSeries("q")
	s.Add(10, 1)
	defer func() {
		if recover() == nil {
			t.Error("backwards Add did not panic")
		}
	}()
	s.Add(5, 1)
}

// TestSampledSeriesShareTheClock records two series on one clock, the
// second starting two ticks late, and holds each to the points it was
// given. A sample off the clock's last tick, before its first, or after a
// tick the series missed panics.
func TestSampledSeriesShareTheClock(t *testing.T) {
	c := AcquireClock(0)
	defer c.Release()
	a, b := AcquireSeries("a", &c), AcquireSeries("b", &c)
	defer a.Release()
	defer b.Release()
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("a record before the first tick", func() { a.Record(1) })
	for k := sim.Time(1); k <= 5; k++ {
		if step := c.Tick(10 * k); step != 10 {
			t.Fatalf("tick %d: step %v, want 10", k, step)
		}
		a.Record(float64(k))
		if k >= 3 {
			b.Add(10*k, float64(-k))
		}
	}
	if c.Tick(50) != 0 {
		t.Error("a tick at the last instant stepped")
	}
	a.Record(50) // replaces the value at t=50
	want := []Point{{10, 1}, {20, 2}, {30, 3}, {40, 4}, {50, 50}}
	if got := a.Points(); !slices.Equal(got, want) {
		t.Errorf("a: %v, want %v", got, want)
	}
	if got, want := b.Points(), []Point{{30, -3}, {40, -4}, {50, -5}}; !slices.Equal(got, want) {
		t.Errorf("b: %v, want %v", got, want)
	}
	if b.At(29) != 0 || b.At(45) != -4 || b.TimeAvg(30, 50) != -3.5 {
		t.Errorf("b reads At(29)=%v At(45)=%v TimeAvg(30,50)=%v", b.At(29), b.At(45), b.TimeAvg(30, 50))
	}
	mustPanic("an Add off the clock's tick", func() { a.Add(40, 1) })
	mustPanic("a tick before the last", func() { c.Tick(40) })
	c.Tick(60)
	a.Record(6)
	c.Tick(70)
	mustPanic("a record after a missed tick", func() { b.Record(7) })
}

func TestSeriesTimeAvg(t *testing.T) {
	s := NewSeries("q")
	s.Add(0, 0)
	s.Add(10, 10) // value 0 for [0,10), then 10
	// Over [0,20]: 0 for 10ns, 10 for 10ns → avg 5.
	if got := s.TimeAvg(0, 20); got != 5 {
		t.Fatalf("TimeAvg = %v, want 5", got)
	}
	// Over [10,20]: flat 10.
	if got := s.TimeAvg(10, 20); got != 10 {
		t.Fatalf("TimeAvg tail = %v, want 10", got)
	}
	// Degenerate window.
	if got := s.TimeAvg(15, 15); got != 10 {
		t.Fatalf("TimeAvg point = %v, want 10", got)
	}
}

func TestSeriesMax(t *testing.T) {
	s := NewSeries("q")
	s.Add(0, 1)
	s.Add(10, 9)
	s.Add(20, 4)
	if got := s.Max(0, 30); got != 9 {
		t.Fatalf("Max = %v, want 9", got)
	}
	if got := s.Max(15, 30); got != 4 {
		t.Fatalf("Max window = %v, want 4", got)
	}
	if got := s.Max(100, 200); got != 0 {
		t.Fatalf("Max empty window = %v, want 0", got)
	}
}

func TestSeriesResample(t *testing.T) {
	s := NewSeries("q")
	s.Add(0, 1)
	s.Add(50, 2)
	pts := s.Resample(0, 100, 4)
	if len(pts) != 5 {
		t.Fatalf("len = %d, want 5", len(pts))
	}
	want := []float64{1, 1, 2, 2, 2}
	for i, p := range pts {
		if p.V != want[i] {
			t.Fatalf("resample[%d] = %v, want %v", i, p.V, want[i])
		}
	}
	if s.Resample(0, 100, 0) != nil {
		t.Fatal("n<1 should return nil")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal allocations: %v, want 1", got)
	}
	// One of four gets everything: index = 1/4.
	if got := JainIndex([]float64{8, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("dominated: %v, want 0.25", got)
	}
	if got := JainIndex(nil); got != 1 {
		t.Fatalf("empty: %v, want 1", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Fatalf("all-zero: %v, want 1", got)
	}
	// Negative treated as zero.
	if got := JainIndex([]float64{-1, 4}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("negative: %v, want 0.5", got)
	}
}

// Property: Jain index is within (0, 1] and scale-invariant.
func TestJainIndexProperty(t *testing.T) {
	f := func(raw []uint8, scale uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		scaled := make([]float64, len(raw))
		k := float64(scale)/10 + 0.1
		for i, r := range raw {
			xs[i] = float64(r)
			scaled[i] = xs[i] * k
		}
		j := JainIndex(xs)
		if j <= 0 || j > 1+1e-12 {
			return false
		}
		if math.Abs(j-JainIndex(scaled)) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedJainIndex(t *testing.T) {
	// Rates exactly at ideal → 1 regardless of heterogeneity.
	got := NormalizedJainIndex([]float64{10, 20, 40}, []float64{10, 20, 40})
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("ideal match: %v", got)
	}
	// Zero-ideal entries are skipped.
	got = NormalizedJainIndex([]float64{3, 100}, []float64{3, 0})
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("zero ideal skipped: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	NormalizedJainIndex([]float64{1}, []float64{1, 2})
}

func TestMinMaxRatio(t *testing.T) {
	if got := MinMaxRatio([]float64{2, 4}); got != 0.5 {
		t.Fatalf("got %v", got)
	}
	if got := MinMaxRatio([]float64{3, 3, 3}); got != 1 {
		t.Fatalf("equal: %v", got)
	}
	if got := MinMaxRatio(nil); got != 1 {
		t.Fatalf("empty: %v", got)
	}
	if got := MinMaxRatio([]float64{0, 0}); got != 1 {
		t.Fatalf("zeros: %v", got)
	}
}

func TestMaxMinSingleLink(t *testing.T) {
	rates, err := MaxMinSolve(MaxMinProblem{
		Capacity: []float64{150},
		Sessions: [][]int{{0}, {0}, {0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rates {
		if math.Abs(r-50) > 1e-9 {
			t.Fatalf("rates = %v, want all 50", rates)
		}
	}
}

func TestMaxMinParkingLot(t *testing.T) {
	// Classic parking lot: long session over links 0,1,2 (cap 100 each);
	// one short session per link. Every link: long + 1 short → 50/50.
	rates, err := MaxMinSolve(MaxMinProblem{
		Capacity: []float64{100, 100, 100},
		Sessions: [][]int{{0, 1, 2}, {0}, {1}, {2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{50, 50, 50, 50}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-9 {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
}

func TestMaxMinHeterogeneousBottlenecks(t *testing.T) {
	// Link 0 cap 30 with sessions A,B; link 1 cap 100 with sessions B,C.
	// A,B bottleneck at link 0 → 15 each. C gets 100-15=85.
	rates, err := MaxMinSolve(MaxMinProblem{
		Capacity: []float64{30, 100},
		Sessions: [][]int{{0}, {0, 1}, {1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{15, 15, 85}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-9 {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
}

func TestMaxMinEmptyPathUnconstrained(t *testing.T) {
	rates, err := MaxMinSolve(MaxMinProblem{
		Capacity: []float64{10},
		Sessions: [][]int{{}, {0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(rates[0], 1) {
		t.Fatalf("empty path should be unconstrained: %v", rates[0])
	}
	if math.Abs(rates[1]-10) > 1e-9 {
		t.Fatalf("rates[1] = %v, want 10", rates[1])
	}
}

func TestMaxMinErrors(t *testing.T) {
	if _, err := MaxMinSolve(MaxMinProblem{Capacity: []float64{-1}, Sessions: [][]int{{0}}}); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := MaxMinSolve(MaxMinProblem{Capacity: []float64{1}, Sessions: [][]int{{3}}}); err == nil {
		t.Error("unknown link accepted")
	}
}

// Properties of the max-min solution: feasibility (no link over capacity),
// and bottleneck condition (every session has at least one saturated link,
// and on that link it has a maximal rate among its users).
func TestMaxMinInvariantsProperty(t *testing.T) {
	f := func(capsRaw []uint8, pathBits []uint8) bool {
		nLinks := len(capsRaw)
		if nLinks == 0 || nLinks > 8 || len(pathBits) == 0 {
			return true
		}
		caps := make([]float64, nLinks)
		for i, c := range capsRaw {
			caps[i] = float64(c) + 1 // strictly positive
		}
		var sessions [][]int
		for _, bits := range pathBits {
			var path []int
			for l := 0; l < nLinks; l++ {
				if bits&(1<<l) != 0 {
					path = append(path, l)
				}
			}
			if len(path) > 0 {
				sessions = append(sessions, path)
			}
		}
		if len(sessions) == 0 {
			return true
		}
		rates, err := MaxMinSolve(MaxMinProblem{Capacity: caps, Sessions: sessions})
		if err != nil {
			return false
		}
		// Feasibility.
		load := make([]float64, nLinks)
		for s, path := range sessions {
			for _, l := range path {
				load[l] += rates[s]
			}
		}
		for l := range caps {
			if load[l] > caps[l]+1e-6 {
				return false
			}
		}
		// Bottleneck condition.
		for s, path := range sessions {
			hasBottleneck := false
			for _, l := range path {
				if load[l] < caps[l]-1e-6 {
					continue
				}
				// link saturated; is s maximal on it?
				maximal := true
				for s2, path2 := range sessions {
					uses := false
					for _, l2 := range path2 {
						if l2 == l {
							uses = true
							break
						}
					}
					if uses && rates[s2] > rates[s]+1e-6 {
						maximal = false
						break
					}
				}
				if maximal {
					hasBottleneck = true
					break
				}
			}
			if !hasBottleneck {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPhantomEquilibrium(t *testing.T) {
	// k=2, u=5, C=150: MACR = 150/11 ≈ 13.64, rate ≈ 68.18.
	macr, rate := PhantomEquilibrium(150, 2, 5)
	if math.Abs(macr-150.0/11) > 1e-9 {
		t.Fatalf("macr = %v", macr)
	}
	if math.Abs(rate-5*150.0/11) > 1e-9 {
		t.Fatalf("rate = %v", rate)
	}
	if m, r := PhantomEquilibrium(0, 2, 5); m != 0 || r != 0 {
		t.Fatal("invalid capacity should zero out")
	}
	if m, r := PhantomEquilibrium(100, 1, 0); m != 0 || r != 0 {
		t.Fatal("invalid u should zero out")
	}
}

// Property: Phantom equilibrium utilization k·u/(1+k·u) approaches 1 and the
// per-session rate never exceeds the single-link fair share C/k.
func TestPhantomEquilibriumProperty(t *testing.T) {
	f := func(kRaw, uRaw uint8) bool {
		k := int(kRaw%20) + 1
		u := float64(uRaw%10) + 1
		const c = 150.0
		macr, rate := PhantomEquilibrium(c, k, u)
		util := float64(k) * rate / c
		if util <= 0 || util >= 1 {
			return false
		}
		if rate > c/float64(k)+1e-9 {
			return false
		}
		// Residual equals MACR at equilibrium: C - k·rate = MACR.
		if math.Abs((c-float64(k)*rate)-macr) > 1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConvergenceTime(t *testing.T) {
	s := NewSeries("rate")
	s.Add(0, 0)
	s.Add(100, 50)
	s.Add(200, 95)  // inside band of 100±10%
	s.Add(300, 102) // stays inside
	s.Add(1000, 99)
	got, ok := ConvergenceTime(s, 0, 1000, 100, 0.10, 500)
	if !ok || got != 200 {
		t.Fatalf("ConvergenceTime = %v,%v, want 200,true", got, ok)
	}
}

func TestConvergenceTimeBounces(t *testing.T) {
	s := NewSeries("rate")
	s.Add(0, 100) // inside from the start
	s.Add(400, 200)
	s.Add(500, 100) // re-enters; stays
	got, ok := ConvergenceTime(s, 0, 1000, 100, 0.05, 300)
	if !ok || got != 500 {
		t.Fatalf("ConvergenceTime = %v,%v, want 500,true", got, ok)
	}
}

func TestConvergenceTimeNever(t *testing.T) {
	s := NewSeries("rate")
	s.Add(0, 0)
	s.Add(100, 500)
	if _, ok := ConvergenceTime(s, 0, 1000, 100, 0.05, 300); ok {
		t.Fatal("should not converge")
	}
	if _, ok := ConvergenceTime(s, 0, 1000, 0, 0.05, 300); ok {
		t.Fatal("zero target should report not-converged")
	}
}

func TestSettling(t *testing.T) {
	s := NewSeries("rate")
	s.Add(0, 100)
	s.Add(50, 200)
	s.Add(100, 100)
	st := Settling(s, 0, 100, 100)
	if math.Abs(st.Overshoot-2) > 1e-9 {
		t.Fatalf("overshoot = %v, want 2", st.Overshoot)
	}
	// |err| is 0 for first half, 100 for second half → mean 50/target=0.5.
	if math.Abs(st.MeanAbsErr-0.5) > 1e-9 {
		t.Fatalf("meanAbsErr = %v, want 0.5", st.MeanAbsErr)
	}
	if got := Settling(s, 0, 0, 100); got != (SettlingStats{}) {
		t.Fatal("degenerate window should be zero")
	}
}

// TestPointPoolDoesNotRatchet plays a sweep of scenarios whose sampled
// series are of unequal length — one in ten outgrows its hint tenfold, as
// a short-RTT flow's cwnd series once did — and holds the capacity the
// pool lends out in round 100 to what it lent in round 10. Pooling regrown
// columns without a class per capacity, the long ones drift to short series
// and the total climbs every round. The same sweep of event-driven series,
// one in ten long, holds their capacity after the appends the same way.
// Each sampled series runs on a clock of its own, so lengths can differ.
func TestPointPoolDoesNotRatchet(t *testing.T) {
	const series, hint = 200, 100
	lent := func(round, capHint int) (total int) {
		ss := make([]*Series, series)
		clocks := make([]Clock, series)
		for i := range ss {
			var c *Clock
			if capHint > 0 {
				clocks[i] = AcquireClock(capHint)
				c = &clocks[i]
			}
			ss[i] = AcquireSeries("s", c)
			total += cap(ss[i].vals)
		}
		for i, s := range ss {
			n := hint / 2
			if (i+round)%10 == 0 {
				n = 10 * hint
			}
			for k := 0; k < n; k++ {
				if capHint > 0 {
					clocks[i].Tick(sim.Time(k))
				}
				s.Add(sim.Time(k), 1)
			}
			if capHint == 0 {
				total += cap(s.points)
			}
		}
		for i, s := range ss {
			s.Release()
			clocks[i].Release()
		}
		return total
	}
	for _, capHint := range []int{hint, 0} {
		var at10 int
		for round := 1; round <= 100; round++ {
			got := lent(round, capHint)
			if round == 10 {
				at10 = got
			}
			if round == 100 && got > at10 {
				t.Fatalf("hint %d: pool lent %d points of capacity in round 100, %d in round 10", capHint, got, at10)
			}
		}
	}
}

// TestSeriesPoolsAcrossGoroutines grows and releases series from several
// goroutines at once, as the fleet's engines do: each series must read
// back exactly what it was given while other goroutines recycle the same
// class pools. Run under -race to check the hand-back ordering.
func TestSeriesPoolsAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				var c *Clock // odd rounds sample on a clock with a hint
				if round%2 == 1 {
					clock := AcquireClock(37)
					c = &clock
				}
				s := AcquireSeries("s", c)
				n := 1 + (g*131+round*17)%300
				for k := 0; k < n; k++ {
					if c != nil {
						c.Tick(sim.Time(k))
					}
					s.Add(sim.Time(k), float64(g*1000+k))
				}
				for k, p := range s.Points() {
					if p.T != sim.Time(k) || p.V != float64(g*1000+k) {
						t.Errorf("goroutine %d round %d: point %d is %v", g, round, k, p)
						break
					}
				}
				s.Release()
				if c != nil {
					c.Release()
				}
			}
		}(g)
	}
	wg.Wait()
}
