package switchalg

import (
	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Phantom is the paper's algorithm bound to an ATM output port. It meters
// every transmitted cell, updates MACR each measurement interval from the
// residual bandwidth, and feeds the allowed rate u·MACR back to sources.
//
// Two feedback modes correspond to the paper's two ATM deployments:
//
//   - explicit rate (default): backward RM cells get ER := min(ER, u·MACR)
//     (Figs. 3–9).
//   - binary / CI (Fig. 11): instead of writing ER, the switch sets the CI
//     bit on backward RM cells whose CCR exceeds u·MACR, so sources above
//     their share back off multiplicatively while others keep increasing.
type Phantom struct {
	// Config is the core estimator configuration. Capacity is overwritten
	// from the port at Attach time (in cells/s).
	Config core.Config
	// BinaryMode selects CI-bit feedback instead of explicit rate.
	BinaryMode bool
	// OnTick, if non-nil, observes each interval update (for MACR figures).
	OnTick func(now sim.Time, residual, macr float64)

	pc *core.PortControl

	tel algTel
	// lastFeedback tracks the binary-mode feedback level (0 none, 1 NI,
	// 2 CI) so transitions count as state changes.
	lastFeedback uint8
}

// Instrument implements Instrumenter.
func (p *Phantom) Instrument(reg *telemetry.Registry) { p.tel.instrument(reg) }

// NewPhantom returns a factory producing explicit-rate Phantom ports with
// the given estimator config (Capacity is filled in per port).
func NewPhantom(cfg core.Config) Factory {
	return func() Algorithm { return &Phantom{Config: cfg} }
}

// NewPhantomCI returns a factory producing binary-mode (CI bit) Phantom
// ports.
func NewPhantomCI(cfg core.Config) Factory {
	return func() Algorithm { return &Phantom{Config: cfg, BinaryMode: true} }
}

// Attach implements Algorithm.
func (p *Phantom) Attach(e *sim.Engine, port Port) {
	cfg := p.Config
	cfg.Capacity = port.Capacity()
	p.pc = core.MustPortControl(cfg, e.Now())
	p.pc.Queue = func() float64 { return float64(port.QueueLen()) }
	p.pc.Capacity = port.Capacity
	p.pc.OnTick = func(now sim.Time, residual, macr float64) {
		p.tel.updates.Inc()
		if p.OnTick != nil {
			p.OnTick(now, residual, macr)
		}
	}
	p.pc.Attach(e)
}

// Control exposes the underlying port controller for figures and tests.
func (p *Phantom) Control() *core.PortControl { return p.pc }

// OnArrival implements Algorithm; Phantom takes no action on arrival.
func (p *Phantom) OnArrival(sim.Time, *atm.Cell) {}

// OnTransmit implements Algorithm: every transmitted cell is metered.
func (p *Phantom) OnTransmit(sim.Time, *atm.Cell) { p.pc.Transmitted(1) }

// OnForwardRM implements Algorithm; explicit-rate Phantom needs nothing
// from forward RM cells — a deliberate contrast with EPRCA/APRC, which
// must average the CCR field.
func (p *Phantom) OnForwardRM(sim.Time, *atm.Cell) {}

// OnBackwardRM implements Algorithm: write the feedback.
func (p *Phantom) OnBackwardRM(_ sim.Time, c *atm.Cell) {
	if p.BinaryMode {
		// Two-level binary feedback: sessions above the allowed rate must
		// decrease (CI); sessions inside the top of the band hold (NI),
		// giving the sawtooth a flat top instead of an overshoot.
		allowed := p.pc.AllowedRate()
		var level uint8
		switch {
		case c.CCR > allowed:
			c.CI = true
			level = 2
		case c.CCR > 0.85*allowed:
			c.NI = true
			level = 1
		}
		if level != 0 {
			p.tel.marks.Inc()
		}
		if level != p.lastFeedback {
			p.lastFeedback = level
			p.tel.states.Inc()
		}
		return
	}
	before := c.ER
	c.ER = p.pc.ClampER(c.ER)
	if c.ER < before {
		p.tel.marks.Inc()
	}
}
