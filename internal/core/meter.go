package core

import "repro/internal/sim"

// Meter accumulates the traffic a port actually transmitted during the
// current measurement interval, and converts it to the residual-bandwidth
// observation Δ = C_target − used_rate at each interval boundary. Like the
// estimator it is constant space: one accumulator and one timestamp.
type Meter struct {
	target     float64 // C_target, units/s
	used       float64 // units transmitted this interval
	intervalAt sim.Time
}

// NewMeter returns a meter with the given target capacity (units/s) whose
// first interval starts at start.
func NewMeter(target float64, start sim.Time) *Meter {
	return &Meter{target: target, intervalAt: start}
}

// Add records that n units were transmitted.
func (m *Meter) Add(n float64) { m.used += n }

// SetTarget retargets the meter to a new C_target (units/s). The current
// interval's accumulated traffic is kept; the next Close measures against
// the new target. Transient capacity changes (a trunk rate cut mid-run)
// use this so the residual observation tracks the live line.
func (m *Meter) SetTarget(target float64) { m.target = target }

// Close ends the interval at time now, returning the measured residual
// bandwidth in units/s, and starts the next interval. A zero-length
// interval returns the full target (nothing could have been used).
func (m *Meter) Close(now sim.Time) float64 {
	dt := now.Sub(m.intervalAt).Seconds()
	m.intervalAt = now
	used := m.used
	m.used = 0
	if dt <= 0 {
		return m.target
	}
	return m.target - used/dt
}
