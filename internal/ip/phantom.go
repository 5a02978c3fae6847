package ip

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// PhantomMode selects which of the paper's four router mechanisms (§4) a
// PhantomDiscipline applies when a packet's stamped rate exceeds u·MACR.
type PhantomMode int

const (
	// SelectiveDiscard drops the packet (Fig. 18 pseudo-code): "the router
	// discards any packet for which the indicated rate (CR) is larger than
	// utilization_factor · MACR".
	SelectiveDiscard PhantomMode = iota
	// SelectiveQuench admits the packet but sends an ICMP Source Quench to
	// its source, which reacts as to a loss.
	SelectiveQuench
	// ECNMark sets the congestion (EFCI) bit on the packet; the receiver
	// echoes it and the source stops increasing / backs off.
	ECNMark
	// SelectiveRED runs RED, but only packets whose rate exceeds u·MACR
	// are eligible for early drop.
	SelectiveRED
)

// String implements fmt.Stringer.
func (m PhantomMode) String() string {
	switch m {
	case SelectiveDiscard:
		return "SelectiveDiscard"
	case SelectiveQuench:
		return "SelectiveQuench"
	case ECNMark:
		return "ECNMark"
	case SelectiveRED:
		return "SelectiveRED"
	default:
		return "?"
	}
}

// PhantomDiscipline is the Phantom port controller applied to an IP router
// output port: the same constant-space core as the ATM switch (meter +
// MACR estimator, units are bits here), with the mode choosing the
// enforcement mechanism.
type PhantomDiscipline struct {
	Mode PhantomMode
	// Config parameterizes the estimator; Capacity is filled from the port.
	Config core.Config
	// OnTick observes estimator updates for figures.
	OnTick func(now sim.Time, residual, macr float64)

	pc *core.PortControl
	// red is the SelectiveRED lottery (seed 1), built at Attach in that
	// mode only.
	red *RED
}

// NewPhantomDiscipline builds a discipline with the given mode and
// estimator configuration.
func NewPhantomDiscipline(mode PhantomMode, cfg core.Config) *PhantomDiscipline {
	return &PhantomDiscipline{Mode: mode, Config: cfg}
}

// Name implements Discipline.
func (d *PhantomDiscipline) Name() string { return "Phantom-" + d.Mode.String() }

// Attach implements Discipline.
func (d *PhantomDiscipline) Attach(e *sim.Engine, p *Port) {
	cfg := d.Config
	cfg.Capacity = p.RateBPS // units: bits/s
	if cfg.Interval == 0 {
		// Packets are ~150× bigger than cells: the ATM default of 1 ms
		// would see only a couple of packet completions per interval and
		// the residual measurement would be dominated by quantization
		// noise. 10 ms keeps tens of packet times per measurement window,
		// the same ratio the cell world enjoys.
		cfg.Interval = 10 * sim.Millisecond
	}
	// Note: the queue-drain charge (core.PortControl.Queue) is left unwired
	// here on purpose. TCP keeps standing queues by design — Reno's
	// sawtooth rides the buffer and Vegas holds its α..β segments there —
	// so charging the backlog against the residual makes the allowed rate
	// collapse whenever the window protocol is merely doing its job, and
	// both flows stall in lockstep. The ATM switch wires it (cell queues
	// are pure transients there).
	d.pc = core.MustPortControl(cfg, e.Now())
	d.pc.OnTick = func(now sim.Time, residual, macr float64) {
		if d.OnTick != nil {
			d.OnTick(now, residual, macr)
		}
	}
	d.pc.Attach(e)
	if d.Mode == SelectiveRED {
		d.red = NewRED(1)
		d.red.Attach(e, p)
	}
}

// Control exposes the Phantom port controller.
func (d *PhantomDiscipline) Control() *core.PortControl { return d.pc }

// Admit implements Discipline.
func (d *PhantomDiscipline) Admit(now sim.Time, p *Packet) Action {
	if p.Ack {
		return Action{}
	}
	exceeds := d.pc.Exceeds(p.CurrentRate)
	switch d.Mode {
	case SelectiveDiscard:
		if exceeds {
			return Action{Drop: true}
		}
	case SelectiveQuench:
		if exceeds {
			return Action{Quench: true}
		}
	case ECNMark:
		if exceeds {
			p.ECN = true
		}
	case SelectiveRED:
		d.red.updateAvg(now)
		if exceeds && d.red.shouldDrop() {
			return Action{Drop: true}
		}
	}
	return Action{}
}

// OnTransmit implements Discipline: meter the port's true utilization in
// bits.
func (d *PhantomDiscipline) OnTransmit(now sim.Time, p *Packet) {
	d.pc.Transmitted(p.SizeBits())
	if d.Mode == SelectiveRED {
		d.red.OnTransmit(now, p)
	}
}
