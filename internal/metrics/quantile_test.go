package metrics

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPercentileStepFunction(t *testing.T) {
	s := NewSeries("q")
	s.Add(0, 1)   // value 1 on [0, 50)
	s.Add(50, 10) // value 10 on [50, 100]
	if got := s.Percentile(0, 100, 0.25); got != 1 {
		t.Fatalf("p25 = %v, want 1", got)
	}
	if got := s.Percentile(0, 100, 0.75); got != 10 {
		t.Fatalf("p75 = %v, want 10", got)
	}
	if got := s.Percentile(0, 100, 1.0); got != 10 {
		t.Fatalf("p100 = %v, want 10", got)
	}
}

func TestPercentileTailSpike(t *testing.T) {
	// A spike occupying 0.5% of the window must show in p100 but not p99.
	s := NewSeries("q")
	s.Add(0, 2)
	s.Add(995, 1000) // spike for the last 0.5%
	if got := s.Percentile(0, 1000, 0.99); got != 2 {
		t.Fatalf("p99 = %v, want 2 (spike excluded)", got)
	}
	if got := s.Percentile(0, 1000, 1.0); got != 1000 {
		t.Fatalf("p100 = %v, want 1000", got)
	}
}

func TestPercentileDegenerate(t *testing.T) {
	s := NewSeries("q")
	s.Add(10, 7)
	if got := s.Percentile(20, 20, 0.5); got != 7 {
		t.Fatalf("point window = %v", got)
	}
	if got := s.Percentile(0, 100, -1); got != s.Percentile(0, 100, 0) {
		t.Fatal("p<0 not clamped")
	}
	if got := s.Percentile(0, 100, 2); got != s.Percentile(0, 100, 1) {
		t.Fatal("p>1 not clamped")
	}
}

// Properties: monotone in p; p100 equals the window max of the step
// function; p0 not above any other quantile.
func TestPercentileProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		s := NewSeries("q")
		tcur := sim.Time(0)
		for i, v := range raw {
			s.Add(tcur, float64(v))
			tcur += sim.Time(i%7 + 1)
		}
		if len(s.points) == 0 {
			return true
		}
		to := tcur + 10
		prev := -1.0
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
			v := s.Percentile(0, to, p)
			if v < prev {
				return false
			}
			prev = v
		}
		// p100 = max of observed step values.
		max := 0.0
		for _, pt := range s.Points() {
			if pt.V > max {
				max = pt.V
			}
		}
		return s.Percentile(0, to, 1) <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
