package core

import "repro/internal/sim"

// PortControl bundles a Meter and a MACREstimator into the complete
// per-port Phantom controller. The owning device calls Transmitted for
// every unit of traffic it sends on the port and Tick at each measurement
// interval; Phantom needs nothing else, which is exactly the paper's point
// about implementation simplicity.
//
// PortControl does not schedule its own ticks so that it stays independent
// of the simulation engine; use Attach for the common case of driving it
// from a sim.Engine.
type PortControl struct {
	cfg   Config
	meter *Meter
	est   *MACREstimator

	// OnTick, if non-nil, is invoked after each interval update with the
	// observation and the new MACR. Experiments use it to record series.
	OnTick func(now sim.Time, residual, macr float64)
	// Queue, if non-nil, reports the port's current backlog in the same
	// units the meter counts; each tick the residual is charged
	// backlog/DrainTime so standing queues drain (see Config.DrainTime).
	Queue func() float64
	// Capacity, if non-nil, reports the port's live line rate each tick, so
	// a transient capacity change (scenario.TransientRate) retargets the
	// meter and estimator instead of leaving them on the build-time
	// snapshot. With a constant line this is a no-op.
	Capacity func() float64
}

// NewPortControl validates cfg and builds the controller with its first
// interval starting at start.
func NewPortControl(cfg Config, start sim.Time) (*PortControl, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &PortControl{
		cfg:   cfg,
		meter: NewMeter(cfg.Capacity*cfg.TargetUtilization, start),
		est:   NewMACREstimator(cfg),
	}, nil
}

// MustPortControl is NewPortControl that panics on config errors; intended
// for experiment wiring where configs are literals.
func MustPortControl(cfg Config, start sim.Time) *PortControl {
	p, err := NewPortControl(cfg, start)
	if err != nil {
		panic(err)
	}
	return p
}

// Config returns the effective (defaulted) configuration.
func (p *PortControl) Config() Config { return p.cfg }

// Transmitted records n units sent on the port during this interval.
func (p *PortControl) Transmitted(n float64) { p.meter.Add(n) }

// Tick closes the current measurement interval at now and updates MACR.
func (p *PortControl) Tick(now sim.Time) {
	if p.Capacity != nil {
		if c := p.Capacity(); c > 0 && c != p.cfg.Capacity {
			p.cfg.Capacity = c
			p.meter.SetTarget(c * p.cfg.TargetUtilization)
			p.est.SetCapacity(c)
		}
	}
	target := p.cfg.Capacity * p.cfg.TargetUtilization
	residual := p.meter.Close(now)
	used := target - residual
	if p.Queue != nil && p.cfg.DrainTime > 0 {
		// Charge the backlog against the advertised residual, bounded so
		// the correction steers rather than slams the estimate.
		charge := p.Queue() / p.cfg.DrainTime.Seconds()
		if max := 0.5 * target; charge > max {
			charge = max
		}
		residual -= charge
	}
	macr := p.est.ObserveLoad(residual, used)
	if p.OnTick != nil {
		p.OnTick(now, residual, macr)
	}
}

// Attach schedules the controller's interval ticks on the engine. The
// returned ref cancels the ticker.
func (p *PortControl) Attach(e *sim.Engine) sim.EventRef {
	return e.Every(p.cfg.Interval, func(en *sim.Engine) { p.Tick(en.Now()) })
}

// MACR returns the current phantom-rate estimate in units/s.
func (p *PortControl) MACR() float64 { return p.est.MACR() }

// AllowedRate returns u·MACR.
func (p *PortControl) AllowedRate() float64 { return p.est.AllowedRate() }

// ClampER applies ER := min(ER, u·MACR).
func (p *PortControl) ClampER(er float64) float64 { return p.est.ClampER(er) }

// Exceeds reports whether rate is above u·MACR.
func (p *PortControl) Exceeds(rate float64) bool { return p.est.Exceeds(rate) }
