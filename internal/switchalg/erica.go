package switchalg

import (
	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ERICA is Jain et al.'s Explicit Rate Indication for Congestion Avoidance
// (the advanced version of the OSU scheme, ATM-Forum/95-0178R1). The paper
// cites it as the example of the *other* design point: "its advanced
// versions — ERICA/ERICA+ — maintain a counter per session", i.e. per-VC
// state, unlike the constant-space class Phantom belongs to.
//
// Per measurement interval the port computes the load factor
//
//	z = input rate / (target utilization · capacity)
//
// and the fair share target/N, where N is the number of VCs seen in the
// previous interval (the per-session state). Each backward RM cell then
// gets
//
//	ER := min(ER, max(fairShare, CCR/z))
//
// — sessions below their fair share may rise to it, sessions above it are
// scaled down by the overload factor.
type ERICA struct {
	// Interval is the measurement interval (default 1 ms).
	Interval sim.Duration
	// TargetUtil is the target utilization (default 0.95).
	TargetUtil float64
	// OnTick observes (now, z, fairShare) per interval.
	OnTick func(now sim.Time, z, fairShare float64)

	port      Port
	arrivals  int64
	seen      map[atm.VCID]struct{}
	activeN   int
	z         float64
	fairShare float64
	lastTick  sim.Time
	tel       algTel
}

// Instrument implements Instrumenter.
func (a *ERICA) Instrument(reg *telemetry.Registry) { a.tel.instrument(reg) }

// NewERICA returns a factory for the per-VC baseline.
func NewERICA() Factory {
	return func() Algorithm { return &ERICA{} }
}

// Attach implements Algorithm.
func (a *ERICA) Attach(e *sim.Engine, p Port) {
	a.port = p
	if a.Interval == 0 {
		a.Interval = sim.Millisecond
	}
	if a.TargetUtil == 0 {
		a.TargetUtil = 0.95
	}
	a.seen = make(map[atm.VCID]struct{})
	a.z = 1
	a.fairShare = a.TargetUtil * p.Capacity()
	a.lastTick = e.Now()
	e.Every(a.Interval, func(en *sim.Engine) { a.tick(en.Now()) })
}

// FairShare returns the current per-VC fair share (cells/s).
func (a *ERICA) FairShare() float64 { return a.fairShare }

// tick closes a measurement interval.
func (a *ERICA) tick(now sim.Time) {
	dt := now.Sub(a.lastTick).Seconds()
	a.lastTick = now
	if dt <= 0 {
		return
	}
	target := a.TargetUtil * a.port.Capacity()
	a.z = float64(a.arrivals) / dt / target
	if a.z < 0.05 {
		a.z = 0.05 // bound the scale-up of CCR/z on a near-idle port
	}
	a.activeN = len(a.seen)
	n := a.activeN
	if n < 1 {
		n = 1
	}
	a.fairShare = target / float64(n)
	a.arrivals = 0
	clear(a.seen)
	a.tel.updates.Inc()
	if a.OnTick != nil {
		a.OnTick(now, a.z, a.fairShare)
	}
}

// OnArrival implements Algorithm: count input and mark the VC active.
func (a *ERICA) OnArrival(_ sim.Time, c *atm.Cell) {
	a.arrivals++
	a.seen[c.VC] = struct{}{}
}

// OnTransmit implements Algorithm.
func (a *ERICA) OnTransmit(sim.Time, *atm.Cell) {}

// OnForwardRM implements Algorithm.
func (a *ERICA) OnForwardRM(sim.Time, *atm.Cell) {}

// OnBackwardRM implements Algorithm.
func (a *ERICA) OnBackwardRM(_ sim.Time, c *atm.Cell) {
	vcShare := c.CCR / a.z
	er := a.fairShare
	if vcShare > er {
		er = vcShare
	}
	if er < c.ER {
		c.ER = er
		a.tel.marks.Inc()
	}
}
