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
//
// The averaging gain and the three reduction factors are EPRCA's.
type APRC struct {
	macr   float64
	rising bool
	prevQ  int
	port   Port
	tel    algTel
}

// APRC's own parameters.
const (
	// aprcSampleInterval is how often the queue derivative is sampled:
	// 100 µs ≈ 35 cell times at 150 Mb/s.
	aprcSampleInterval = 100 * sim.Microsecond
	// aprcVQT is the very-congested queue threshold in cells, the paper's
	// configuration ("threshold is 300 cells").
	aprcVQT = 300
)

// Instrument implements Algorithm.
func (a *APRC) Instrument(reg *telemetry.Registry) { a.tel.instrument(reg) }

// NewAPRC returns a factory with the paper's configuration.
func NewAPRC() Factory {
	return func() Algorithm { return &APRC{} }
}

// Attach implements Algorithm.
func (a *APRC) Attach(e *sim.Engine, p Port) {
	a.port = p
	e.Every(aprcSampleInterval, aprcSample, sim.Payload{Obj: a})
}

// aprcSample samples the queue of the APRC in p.Obj: a change between
// rising and falling is a congestion-state transition.
func aprcSample(_ *sim.Engine, p sim.Payload) {
	a := p.Obj.(*APRC)
	q := a.port.QueueLen()
	if rising := q > a.prevQ; rising != a.rising {
		a.rising = rising
		a.tel.states.Inc()
	}
	a.prevQ = q
}

// FairShare implements Algorithm: the CCR average MACR.
func (a *APRC) FairShare() float64 { return a.macr }

// OnArrival implements Algorithm.
func (a *APRC) OnArrival(sim.Time, *atm.Cell) {}

// OnTransmit implements Algorithm.
func (a *APRC) OnTransmit(sim.Time, *atm.Cell) {}

// OnForwardRM implements Algorithm: same CCR averaging as EPRCA.
func (a *APRC) OnForwardRM(_ sim.Time, c *atm.Cell) {
	a.macr = averageCCR(a.macr, c.CCR)
	a.tel.updates.Inc()
}

// OnBackwardRM implements Algorithm.
func (a *APRC) OnBackwardRM(_ sim.Time, c *atm.Cell) {
	q := a.port.QueueLen()
	switch {
	case q > aprcVQT:
		c.ER = minF(c.ER, a.macr*eprcaMRF)
		c.CI = true
		a.tel.marks.Inc()
	case a.rising:
		if c.CCR > a.macr*eprcaDPF {
			c.ER = minF(c.ER, a.macr*eprcaERF)
			a.tel.marks.Inc()
		}
	}
}
