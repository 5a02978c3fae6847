package switchalg

import (
	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// APRC is Siu and Tzeng's Adaptive Proportional Rate Control "with
// intelligent congestion indication" (ATM-Forum/94-0888), a modification of
// EPRCA in which the congested state is a function of the *rate of change*
// of the queue rather than its absolute length: the port is congested while
// the queue is growing. A very-congested state remains threshold-based; the
// paper's comparison configures that threshold at 300 cells ("threshold is
// 300 cells, values of other parameters are as recommended in [ST94]").
//
// Derivative detection reacts earlier than EPRCA's threshold, but — as the
// paper observes — the queue can still overshoot the very-congested
// threshold in some scenarios because a shrinking-but-huge queue reads as
// "not congested".
type APRC struct {
	// AV is the CCR averaging gain (default 1/16).
	AV float64
	// SampleInterval is how often the queue derivative is sampled
	// (default 100 µs ≈ 35 cell times at 150 Mb/s).
	SampleInterval sim.Duration
	// VQT is the very-congested queue threshold (default 300 cells, the
	// paper's configuration).
	VQT int
	// DPF, ERF, MRF are as in EPRCA.
	DPF float64
	ERF float64
	MRF float64
	// OnMACR observes the fair-share estimate.
	OnMACR func(now sim.Time, macr float64)

	macr   float64
	rising bool
	prevQ  int
	port   Port
	tel    algTel
}

// Instrument implements Instrumenter.
func (a *APRC) Instrument(reg *telemetry.Registry) { a.tel.instrument(reg) }

// NewAPRC returns a factory with the paper's configuration.
func NewAPRC() Factory {
	return func() Algorithm { return &APRC{} }
}

// Attach implements Algorithm.
func (a *APRC) Attach(e *sim.Engine, p Port) {
	a.port = p
	if a.AV == 0 {
		a.AV = 1.0 / 16
	}
	if a.SampleInterval == 0 {
		a.SampleInterval = 100 * sim.Microsecond
	}
	if a.VQT == 0 {
		a.VQT = 300
	}
	if a.DPF == 0 {
		a.DPF = 7.0 / 8
	}
	if a.ERF == 0 {
		a.ERF = 15.0 / 16
	}
	if a.MRF == 0 {
		a.MRF = 1.0 / 4
	}
	e.Every(a.SampleInterval, func(*sim.Engine) {
		q := p.QueueLen()
		if rising := q > a.prevQ; rising != a.rising {
			a.rising = rising
			a.tel.states.Inc()
		}
		a.prevQ = q
	})
}

// MACR returns the current fair-share estimate (cells/s).
func (a *APRC) MACR() float64 { return a.macr }

// OnArrival implements Algorithm.
func (a *APRC) OnArrival(sim.Time, *atm.Cell) {}

// OnTransmit implements Algorithm.
func (a *APRC) OnTransmit(sim.Time, *atm.Cell) {}

// OnForwardRM implements Algorithm: same CCR averaging as EPRCA.
func (a *APRC) OnForwardRM(now sim.Time, c *atm.Cell) {
	if a.macr == 0 {
		a.macr = c.CCR
	} else {
		a.macr += a.AV * (c.CCR - a.macr)
	}
	a.tel.updates.Inc()
	if a.OnMACR != nil {
		a.OnMACR(now, a.macr)
	}
}

// OnBackwardRM implements Algorithm.
func (a *APRC) OnBackwardRM(_ sim.Time, c *atm.Cell) {
	q := a.port.QueueLen()
	switch {
	case q > a.VQT:
		c.ER = minF(c.ER, a.macr*a.MRF)
		c.CI = true
		a.tel.marks.Inc()
	case a.rising:
		if c.CCR > a.macr*a.DPF {
			c.ER = minF(c.ER, a.macr*a.ERF)
			a.tel.marks.Inc()
		}
	}
}
