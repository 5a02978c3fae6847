package core

// MACREstimator is the constant-space filter at the heart of Phantom. Each
// measurement interval it receives the observed residual bandwidth Δ and
// folds it into MACR by an exponentially weighted average,
//
//	MACR := (1−α)·MACR + α·Δ
//
// with gain α = AlphaInc when Δ > MACR and α = AlphaDec when Δ < MACR
// (reacting to congestion faster than to relief).
//
// Following the paper's pointer to Jacobson's RTT estimator, the gain is
// modulated by the mean deviation of Δ so that measurement noise does not
// wobble MACR while a genuine load change still moves it at full speed:
//
//	ERR  := Δ − MACR
//	MDEV := (1−β)·MDEV + β·|ERR|
//	α_eff := α · clamp(|ERR| / (4·MDEV + ε), ¼, 1)
//
// In steady state |ERR| ≈ MDEV, so α_eff ≈ α/4 (a calm filter); after a step
// change |ERR| ≫ MDEV, so α_eff = α (a fast filter). ε = Capacity/2¹⁶ keeps
// the ratio defined on a perfectly quiet link. This rule is a documented
// reconstruction (DESIGN.md §5); the A01 ablation benchmark compares it to
// the plain fixed-gain filter.
//
// The struct is the algorithm's complete per-port state — three floats —
// which is what "constant space" means in the paper's taxonomy.
type MACREstimator struct {
	cfg  Config
	macr float64
	mdev float64
}

// NewMACREstimator returns an estimator for the validated config. The
// caller is expected to have called cfg.Validate.
func NewMACREstimator(cfg Config) *MACREstimator {
	cfg = cfg.withDefaults()
	m := &MACREstimator{cfg: cfg, macr: cfg.InitialMACR}
	return m
}

// MACR returns the current estimate of the phantom session's rate in
// units/s.
func (m *MACREstimator) MACR() float64 { return m.macr }

// SetCapacity rebases the estimator on a new link capacity (units/s),
// keeping the filter state. Mid-run capacity changes (transient schedules)
// call this so clamps and the adaptive-gain epsilon follow the live line
// instead of the build-time snapshot.
func (m *MACREstimator) SetCapacity(c float64) { m.cfg.Capacity = c }

// ObserveLoad folds one interval's measured residual bandwidth (units/s)
// into the estimate and returns the updated MACR. The estimate is clamped
// to [0, target capacity]: the phantom session can neither have negative
// rate nor exceed the link. usedRate, the port's true transmission rate,
// feeds the stability cap; it is supplied apart from the residual so
// residual adjustments (a queue-drain charge) do not distort the loop-gain
// estimate.
func (m *MACREstimator) ObserveLoad(residual, usedRate float64) float64 {
	target := m.cfg.Capacity * DefaultTargetUtilization
	rawUsed := usedRate
	if rawUsed < 0 {
		rawUsed = 0
	}
	if rawUsed > m.cfg.Capacity {
		rawUsed = m.cfg.Capacity
	}
	if residual < 0 {
		// The meter can observe short-term overshoot (a queue draining
		// faster than line rate cannot happen, but a measurement window
		// straddling a burst can exceed target, which is below capacity).
		// The phantom's rate is then simply zero.
		residual = 0
	}
	err := residual - m.macr
	abs := err
	if abs < 0 {
		abs = -abs
	}
	m.mdev = (1-DefaultBeta)*m.mdev + DefaultBeta*abs

	alpha := m.cfg.AlphaInc
	if err < 0 {
		alpha = m.cfg.AlphaDec
	}
	if !m.cfg.DisableAdaptiveGain {
		eps := m.cfg.Capacity / 65536
		ratio := abs / (4*m.mdev + eps)
		if ratio > 1 {
			ratio = 1
		}
		if ratio < 0.25 {
			ratio = 0.25
		}
		alpha *= ratio
	}
	if !m.cfg.DisableGainNormalization {
		// Stability cap: the closed loop's Jacobian is 1 − α(1+k·u) and
		// k·u ≈ used/MACR, so α above 1/(1+used/MACR) over-rotates the
		// loop (see internal/model). Cap at the deadbeat bound.
		ref := m.macr
		if floor := target / 256; ref < floor {
			ref = floor
		}
		if cap := 1 / (1 + rawUsed/ref); alpha > cap {
			alpha = cap
		}
	}
	// Bound the per-interval multiplicative growth (the CAPC-style ERU
	// bound): during a transient the sources lag the estimate by the RM
	// loop delay, so an estimate that jumps an order of magnitude in one
	// interval invites a synchronized burst the loop then has to choke
	// off. ×1.5 per interval still traverses any rate range in tens of
	// intervals.
	prev := m.macr
	m.macr += alpha * err
	if growthCap := prev*1.5 + target/1024; m.macr > growthCap {
		m.macr = growthCap
	}
	if m.macr < m.cfg.MinMACR {
		m.macr = m.cfg.MinMACR
	}
	if m.macr < 0 {
		m.macr = 0
	}
	if m.macr > target {
		m.macr = target
	}
	return m.macr
}

// AllowedRate returns u·MACR, the maximum rate a real session may use
// through this port.
func (m *MACREstimator) AllowedRate() float64 {
	return m.cfg.UtilizationFactor * m.macr
}

// ClampER applies the Phantom explicit-rate rule ER := min(ER, u·MACR).
func (m *MACREstimator) ClampER(er float64) float64 {
	if a := m.AllowedRate(); er > a {
		return a
	}
	return er
}

// Exceeds reports whether a session rate is above the allowed rate — the
// predicate behind Selective Discard, Selective Source Quench, the EFCI-bit
// mechanism and Selective RED (paper §4).
func (m *MACREstimator) Exceeds(rate float64) bool {
	return rate > m.AllowedRate()
}
