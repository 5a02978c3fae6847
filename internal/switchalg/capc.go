package switchalg

import (
	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// CAPC is Barnhart's Congestion Avoidance using Proportional Control
// (ATM-Forum/94-0983R1). Each interval it measures the port's input rate
// and forms the load factor z = input / (target utilization · capacity).
// The explicit-rate setting ERS then moves proportionally to the *fraction*
// of unused capacity:
//
//	z < 1 (underload): ERS := ERS · min(ERU, 1 + (1−z)·Rup)
//	z ≥ 1 (overload):  ERS := ERS · max(ERF, 1 − (z−1)·Rdn)
//
// plus a CI bit while the queue exceeds a threshold. The paper notes CAPC
// is "analogous to Phantom that uses the absolute amount of unused
// bandwidth" — CAPC uses the relative amount — and finds it converges more
// slowly while holding a smaller transient queue (Fig. 22).
//
// Its parameters are the contribution's recommendations.
type CAPC struct {
	// rup is the underload gain, capcRup but for tests.
	rup float64

	ers      float64
	arrivals int64
	lastTick sim.Time
	port     Port
	overCQT  bool
	tel      algTel
}

// CAPC's parameters, as recommended in ATM-Forum/94-0983R1.
const (
	capcInterval   = sim.Millisecond // measurement interval
	capcTargetUtil = 0.95            // target utilization
	// capcRup and capcRdn are the proportional gains. Barnhart recommends
	// ranges of 0.025–0.1 and 0.2–0.8; these are the conservative ends,
	// which reproduce the slow-but-smooth behaviour the paper observed in
	// Fig. 22.
	capcRup = 0.025
	capcRdn = 0.2
	// capcERU and capcERF bound the per-interval multiplicative change.
	capcERU = 1.5
	capcERF = 0.5
	capcCQT = 50 // queue threshold above which CI is set, cells
	// capcInitERS divides the line rate into the first explicit-rate
	// setting: a tenth of capacity, ICR-like.
	capcInitERS = 10
)

// Instrument implements Algorithm.
func (a *CAPC) Instrument(reg *telemetry.Registry) { a.tel.instrument(reg) }

// NewCAPC returns a factory with the recommended parameters.
func NewCAPC() Factory {
	return func() Algorithm { return &CAPC{rup: capcRup} }
}

// Attach implements Algorithm.
func (a *CAPC) Attach(e *sim.Engine, p Port) {
	a.port = p
	a.ers = p.Capacity() / capcInitERS
	a.lastTick = e.Now()
	e.Every(capcInterval, capcTick, sim.Payload{Obj: a})
}

// capcTick closes a measurement interval of the CAPC in p.Obj.
func capcTick(e *sim.Engine, p sim.Payload) { p.Obj.(*CAPC).tick(e.Now()) }

// FairShare implements Algorithm: the explicit-rate setting ERS.
func (a *CAPC) FairShare() float64 { return a.ers }

// tick closes one measurement interval.
func (a *CAPC) tick(now sim.Time) {
	dt := now.Sub(a.lastTick).Seconds()
	a.lastTick = now
	if dt <= 0 {
		return
	}
	target := capcTargetUtil * a.port.Capacity()
	z := float64(a.arrivals) / dt / target
	a.arrivals = 0
	if z < 1 {
		f := 1 + (1-z)*a.rup
		if f > capcERU {
			f = capcERU
		}
		a.ers *= f
	} else {
		f := 1 - (z-1)*capcRdn
		if f < capcERF {
			f = capcERF
		}
		a.ers *= f
	}
	if lineRate := a.port.Capacity(); a.ers > lineRate {
		a.ers = lineRate
	}
	if a.ers < 1 {
		a.ers = 1 // never rate sources to a full stop
	}
	a.tel.updates.Inc()
}

// OnArrival implements Algorithm: count input cells for the load factor.
func (a *CAPC) OnArrival(_ sim.Time, _ *atm.Cell) { a.arrivals++ }

// OnTransmit implements Algorithm.
func (a *CAPC) OnTransmit(sim.Time, *atm.Cell) {}

// OnForwardRM implements Algorithm; CAPC does not read CCR.
func (a *CAPC) OnForwardRM(sim.Time, *atm.Cell) {}

// OnBackwardRM implements Algorithm.
func (a *CAPC) OnBackwardRM(_ sim.Time, c *atm.Cell) {
	before := c.ER
	c.ER = minF(c.ER, a.ers)
	over := a.port.QueueLen() > capcCQT
	if over {
		c.CI = true
	}
	if over != a.overCQT {
		a.overCQT = over
		a.tel.states.Inc()
	}
	if c.ER < before || over {
		a.tel.marks.Inc()
	}
}
