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
// Parameter defaults follow the contribution's recommendations as the paper
// did ("values of other parameters are as recommended in [Rob94]").
type EPRCA struct {
	// AV is the CCR averaging gain (default 1/16).
	AV float64
	// QT is the congested queue threshold in cells (default 100).
	QT int
	// DQT is the very-congested queue threshold in cells (default 1000).
	DQT int
	// DPF is the down-pressure factor (default 7/8).
	DPF float64
	// ERF is the explicit reduction factor (default 15/16).
	ERF float64
	// MRF is the major reduction factor for very congested ports
	// (default 1/4).
	MRF float64
	// OnMACR, if non-nil, observes the fair-share estimate (for figures).
	OnMACR func(now sim.Time, macr float64)

	macr      float64
	port      Port
	congested bool
	tel       algTel
}

// Instrument implements Instrumenter.
func (a *EPRCA) Instrument(reg *telemetry.Registry) { a.tel.instrument(reg) }

// NewEPRCA returns a factory with the recommended parameters.
func NewEPRCA() Factory {
	return func() Algorithm { return &EPRCA{} }
}

// Attach implements Algorithm.
func (a *EPRCA) Attach(_ *sim.Engine, p Port) {
	a.port = p
	if a.AV == 0 {
		a.AV = 1.0 / 16
	}
	if a.QT == 0 {
		a.QT = 100
	}
	if a.DQT == 0 {
		a.DQT = 1000
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
}

// MACR returns the current fair-share estimate (cells/s).
func (a *EPRCA) MACR() float64 { return a.macr }

// OnArrival implements Algorithm.
func (a *EPRCA) OnArrival(sim.Time, *atm.Cell) {}

// OnTransmit implements Algorithm.
func (a *EPRCA) OnTransmit(sim.Time, *atm.Cell) {}

// OnForwardRM implements Algorithm: fold the source's CCR into MACR.
func (a *EPRCA) OnForwardRM(now sim.Time, c *atm.Cell) {
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

// OnBackwardRM implements Algorithm: apply queue-threshold feedback.
func (a *EPRCA) OnBackwardRM(_ sim.Time, c *atm.Cell) {
	q := a.port.QueueLen()
	if congested := q > a.QT; congested != a.congested {
		a.congested = congested
		a.tel.states.Inc()
	}
	switch {
	case q > a.DQT:
		c.ER = minF(c.ER, a.macr*a.MRF)
		c.CI = true
		a.tel.marks.Inc()
	case q > a.QT:
		if c.CCR > a.macr*a.DPF {
			c.ER = minF(c.ER, a.macr*a.ERF)
			a.tel.marks.Inc()
		}
	}
}
