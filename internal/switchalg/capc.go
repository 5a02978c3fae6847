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
// Defaults follow the contribution's recommendations.
type CAPC struct {
	// Interval is the measurement interval (default 1 ms).
	Interval sim.Duration
	// TargetUtil is the target utilization (default 0.95).
	TargetUtil float64
	// Rup and Rdn are the proportional gains. Barnhart recommends ranges
	// of 0.025–0.1 and 0.2–0.8; we default to the conservative ends
	// (0.025 and 0.2), which reproduces the slow-but-smooth behaviour the
	// paper observed in Fig. 22.
	Rup float64
	Rdn float64
	// ERU and ERF bound the per-interval multiplicative change
	// (defaults 1.5 and 0.5).
	ERU float64
	ERF float64
	// CQT is the queue threshold above which CI is set (default 50 cells).
	CQT int
	// InitERS seeds the explicit-rate setting (default ICR-like: a tenth
	// of capacity).
	InitERS float64
	// OnTick observes (now, z, ERS) each interval for figures.
	OnTick func(now sim.Time, z, ers float64)

	ers      float64
	arrivals int64
	lastTick sim.Time
	port     Port
	overCQT  bool
	tel      algTel
}

// Instrument implements Instrumenter.
func (a *CAPC) Instrument(reg *telemetry.Registry) { a.tel.instrument(reg) }

// NewCAPC returns a factory with the recommended parameters.
func NewCAPC() Factory {
	return func() Algorithm { return &CAPC{} }
}

// Attach implements Algorithm.
func (a *CAPC) Attach(e *sim.Engine, p Port) {
	a.port = p
	if a.Interval == 0 {
		a.Interval = sim.Millisecond
	}
	if a.TargetUtil == 0 {
		a.TargetUtil = 0.95
	}
	if a.Rup == 0 {
		a.Rup = 0.025
	}
	if a.Rdn == 0 {
		a.Rdn = 0.2
	}
	if a.ERU == 0 {
		a.ERU = 1.5
	}
	if a.ERF == 0 {
		a.ERF = 0.5
	}
	if a.CQT == 0 {
		a.CQT = 50
	}
	if a.InitERS == 0 {
		a.InitERS = p.Capacity() / 10
	}
	a.ers = a.InitERS
	a.lastTick = e.Now()
	e.Every(a.Interval, capcTick, sim.Payload{Obj: a})
}

// capcTick closes a measurement interval of the CAPC in p.Obj.
func capcTick(e *sim.Engine, p sim.Payload) { p.Obj.(*CAPC).tick(e.Now()) }

// ERS returns the current explicit-rate setting (cells/s).
func (a *CAPC) ERS() float64 { return a.ers }

// tick closes one measurement interval.
func (a *CAPC) tick(now sim.Time) {
	dt := now.Sub(a.lastTick).Seconds()
	a.lastTick = now
	if dt <= 0 {
		return
	}
	target := a.TargetUtil * a.port.Capacity()
	z := float64(a.arrivals) / dt / target
	a.arrivals = 0
	if z < 1 {
		f := 1 + (1-z)*a.Rup
		if f > a.ERU {
			f = a.ERU
		}
		a.ers *= f
	} else {
		f := 1 - (z-1)*a.Rdn
		if f < a.ERF {
			f = a.ERF
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
	if a.OnTick != nil {
		a.OnTick(now, z, a.ers)
	}
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
	over := a.port.QueueLen() > a.CQT
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
