package core

import (
	"testing"

	"repro/internal/sim"
)

// The estimator update is the per-interval hot path of every controlled
// port; it must stay allocation-free.
func BenchmarkEstimatorObserve(b *testing.B) {
	m := NewMACREstimator(Config{Capacity: 150e6})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.observe(float64(i % 100e6))
	}
}

func BenchmarkPortControlTick(b *testing.B) {
	pc := MustPortControl(Config{Capacity: 150e6}, 0)
	pc.Queue = func() float64 { return 100 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pc.Transmitted(1000)
		pc.Tick(sim.Time(i+1) * sim.Time(sim.Millisecond))
	}
}

func BenchmarkClampER(b *testing.B) {
	pc := MustPortControl(Config{Capacity: 150e6}, 0)
	b.ReportAllocs()
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += pc.ClampER(float64(i))
	}
	_ = s
}
