package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// TestRNGStreamEquality: two generators with the same seed agree on an
// interleaved stream of every method, for arbitrary seeds — the property
// the fuzz campaign's cross-worker determinism rests on.
func TestRNGStreamEquality(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 50; i++ {
			switch i % 4 {
			case 0:
				if a.Uint64() != b.Uint64() {
					return false
				}
			case 1:
				if a.Float64() != b.Float64() {
					return false
				}
			case 2:
				if a.Intn(1000) != b.Intn(1000) {
					return false
				}
			default:
				if a.Exp(3.5) != b.Exp(3.5) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// transitionStream walks a pattern's full change-point sequence.
func transitionStream(p Pattern, upTo sim.Time) []sim.Time {
	var out []sim.Time
	for tm := sim.Time(0); ; {
		next, ok := p.NextChange(tm)
		if !ok || next > upTo {
			return out
		}
		out = append(out, next)
		tm = next
	}
}

// TestRandomOnOffTransitionStreamEquality: same (seed, params, horizon)
// must reproduce the exact transition schedule, not merely agree on sampled
// instants; distinct seeds must not all collapse onto one schedule.
func TestRandomOnOffTransitionStreamEquality(t *testing.T) {
	horizon := sim.Time(200 * sim.Millisecond)
	mk := func(seed uint64) *RandomOnOff {
		return NewRandomOnOff(seed, 0, 5*sim.Millisecond, 10*sim.Millisecond, horizon)
	}
	base := transitionStream(mk(42), horizon)
	if len(base) == 0 {
		t.Fatal("no transitions generated")
	}
	again := transitionStream(mk(42), horizon)
	if len(base) != len(again) {
		t.Fatalf("same seed: %d vs %d transitions", len(base), len(again))
	}
	for i := range base {
		if base[i] != again[i] {
			t.Fatalf("same seed diverged at transition %d: %v vs %v", i, base[i], again[i])
		}
	}
	distinct := false
	for seed := uint64(1); seed <= 5 && !distinct; seed++ {
		other := transitionStream(mk(seed), horizon)
		if len(other) != len(base) {
			distinct = true
			break
		}
		for i := range other {
			if other[i] != base[i] {
				distinct = true
				break
			}
		}
	}
	if !distinct {
		t.Fatal("five different seeds all produced seed 42's schedule")
	}
}
