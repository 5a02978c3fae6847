package switchalg

import (
	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// EPRCA is Roberts' Enhanced Proportional Rate Control Algorithm
// (ATM-Forum/94-0735R1), the July 1994 baseline the paper compares against
// first. Per output port it keeps a fair-share estimate MACR as an
// exponential average of the CCR values carried by *forward* RM cells:
//
//	MACR := MACR·(1−AV) + CCR·AV
//
// Congestion is detected from the queue length: above QT the port is
// congested and selectively reduces sessions whose CCR exceeds MACR·DPF to
// MACR·ERF; above DQT it is very congested and reduces every session to
// MACR·MRF and sets CI. Because detection is a queue *threshold*, the
// queue tends to hover at QT and the rates oscillate — the behaviour the
// paper's Fig. 19/20 exhibits and Phantom avoids.
//
// Its parameters are the contribution's recommendations, as the paper used
// them ("values of other parameters are as recommended in [Rob94]").
type EPRCA struct {
	macr      float64
	port      Port
	congested bool
	tel       algTel
}

// EPRCA's parameters, as recommended in [Rob94] (ATM-Forum/94-0735R1).
// APRC inherits the gain and the three factors.
const (
	eprcaAV  = 1.0 / 16  // CCR averaging gain
	eprcaQT  = 100       // congested queue threshold, cells
	eprcaDQT = 1000      // very-congested queue threshold, cells
	eprcaDPF = 7.0 / 8   // down-pressure factor
	eprcaERF = 15.0 / 16 // explicit reduction factor
	eprcaMRF = 1.0 / 4   // major reduction factor, very congested ports
)

// Instrument implements Algorithm.
func (a *EPRCA) Instrument(reg *telemetry.Registry) { a.tel.instrument(reg) }

// NewEPRCA returns a factory with the recommended parameters.
func NewEPRCA() Factory {
	return func() Algorithm { return &EPRCA{} }
}

// Attach implements Algorithm.
func (a *EPRCA) Attach(_ *sim.Engine, p Port) { a.port = p }

// FairShare implements Algorithm: the CCR average MACR.
func (a *EPRCA) FairShare() float64 { return a.macr }

// OnArrival implements Algorithm.
func (a *EPRCA) OnArrival(sim.Time, *atm.Cell) {}

// OnTransmit implements Algorithm.
func (a *EPRCA) OnTransmit(sim.Time, *atm.Cell) {}

// OnForwardRM implements Algorithm: fold the source's CCR into MACR.
func (a *EPRCA) OnForwardRM(_ sim.Time, c *atm.Cell) {
	a.macr = averageCCR(a.macr, c.CCR)
	a.tel.updates.Inc()
}

// averageCCR folds a forward RM cell's CCR into the exponential average
// macr (EPRCA's and APRC's MACR); the first CCR seeds it.
func averageCCR(macr, ccr float64) float64 {
	if macr == 0 {
		return ccr
	}
	return macr + eprcaAV*(ccr-macr)
}

// OnBackwardRM implements Algorithm: apply queue-threshold feedback.
func (a *EPRCA) OnBackwardRM(_ sim.Time, c *atm.Cell) {
	q := a.port.QueueLen()
	if congested := q > eprcaQT; congested != a.congested {
		a.congested = congested
		a.tel.states.Inc()
	}
	switch {
	case q > eprcaDQT:
		c.ER = minF(c.ER, a.macr*eprcaMRF)
		c.CI = true
		a.tel.marks.Inc()
	case q > eprcaQT:
		if c.CCR > a.macr*eprcaDPF {
			c.ER = minF(c.ER, a.macr*eprcaERF)
			a.tel.marks.Inc()
		}
	}
}
