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
	port      Port
	arrivals  int64
	seen      map[atm.VCID]struct{}
	activeN   int
	z         float64
	fairShare float64
	lastTick  sim.Time
	tel       algTel
}

// ERICA's parameters, as recommended in ATM-Forum/95-0178R1.
const (
	ericaInterval   = sim.Millisecond // measurement interval
	ericaTargetUtil = 0.95            // target utilization
)

// Instrument implements Algorithm.
func (a *ERICA) Instrument(reg *telemetry.Registry) { a.tel.instrument(reg) }

// NewERICA returns a factory for the per-VC baseline.
func NewERICA() Factory {
	return func() Algorithm { return &ERICA{} }
}

// Attach implements Algorithm.
func (a *ERICA) Attach(e *sim.Engine, p Port) {
	a.port = p
	a.seen = make(map[atm.VCID]struct{})
	a.z = 1
	a.fairShare = ericaTargetUtil * p.Capacity()
	a.lastTick = e.Now()
	e.Every(ericaInterval, ericaTick, sim.Payload{Obj: a})
}

// ericaTick closes a measurement interval of the ERICA in p.Obj.
func ericaTick(e *sim.Engine, p sim.Payload) { p.Obj.(*ERICA).tick(e.Now()) }

// FairShare implements Algorithm: the per-VC fair share.
func (a *ERICA) FairShare() float64 { return a.fairShare }

// tick closes a measurement interval.
func (a *ERICA) tick(now sim.Time) {
	dt := now.Sub(a.lastTick).Seconds()
	a.lastTick = now
	if dt <= 0 {
		return
	}
	target := ericaTargetUtil * a.port.Capacity()
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
