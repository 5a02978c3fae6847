// Package core implements the Phantom flow-control scheme itself: a
// constant-space estimator of each port's residual bandwidth.
//
// The idea of the paper is to attach an imaginary "phantom" session to every
// link. The phantom's rate is the link's residual (unused) bandwidth, and a
// filtered estimate of it is kept in a single variable, MACR (Maximum
// Allowed Cell Rate). Real sessions are allowed to send at up to
// UtilizationFactor × MACR; at equilibrium with k greedy sessions this
// yields MACR = C/(1+k·u) and per-session rate u·C/(1+k·u), which is the
// max-min fair share discounted by the phantom's 1/u share.
//
// The package is deliberately transport-agnostic: the ATM switch
// (internal/atmnet) and the IP router (internal/ip) both embed a
// PortControl. Rates are in "units per second" where a unit is whatever the
// caller meters (cells for ATM, bits for IP).
package core

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// The controller's constants and the defaults for Config fields, exported
// so experiments and docs can refer to them by name. Values marked
// "reconstruction" are our documented choices for details not recoverable
// from the paper text (see DESIGN.md §5).
const (
	// DefaultTargetUtilization scales link capacity to the residual
	// measurement target C_target, leaving headroom that drains queues:
	// residual Δ is measured as C_target − used (reconstruction).
	DefaultTargetUtilization = 0.95
	// DefaultInterval is the measurement interval Δt (reconstruction; A02
	// sweeps it).
	DefaultInterval = sim.Millisecond
	// DefaultAlphaInc is the filter gain when the measured residual is above
	// MACR (rate increases are taken cautiously).
	DefaultAlphaInc = 1.0 / 16
	// DefaultAlphaDec is the filter gain when the measured residual is below
	// MACR (congestion must be reacted to quickly, so the decrease gain is
	// larger).
	DefaultAlphaDec = 1.0 / 4
	// DefaultUtilizationFactor is the paper's recommended utilization
	// factor u = 5 (quoted in the Fig. 9/11 contexts).
	DefaultUtilizationFactor = 5.0
	// DefaultBeta is the gain of the mean-deviation estimator used to
	// modulate the filter gains, following Jacobson's RTT estimator as the
	// paper prescribes.
	DefaultBeta = 1.0 / 4
)

// drainTime is the horizon over which a standing backlog is budgeted for
// draining: each interval the measured residual is reduced by
// queue/drainTime, so a port with a backlog advertises less spare
// bandwidth until the backlog is gone. Without this term a standing queue
// is metastable at high session counts (the residual reads zero whether
// the queue holds 10 cells or 10⁵). It uses the port's own queue length,
// still O(1) state (reconstruction).
const drainTime = 50 * sim.Millisecond

// Config parameterizes one Phantom port controller. Every field is one
// some caller sets (a zero field takes its default); what no experiment
// varies is a constant above, not a field.
type Config struct {
	// Capacity is the port's raw capacity in units/s. Required.
	Capacity float64
	// Interval is the measurement interval Δt. 0 means the default.
	Interval sim.Duration
	// AlphaInc and AlphaDec are the filter gains (0 means default).
	AlphaInc float64
	AlphaDec float64
	// UtilizationFactor is u: sessions are allowed u·MACR. 0 means default.
	UtilizationFactor float64
	// DisableAdaptiveGain turns off the mean-deviation modulation of the
	// filter gains (the A01 ablation).
	DisableAdaptiveGain bool
	// DisableGainNormalization turns off the loop-gain cap (the A05
	// ablation). The fluid analysis (internal/model) shows the fixed-gain
	// map is stable only while α(1+k·u) < 2; beyond ≈30 sessions the
	// default gains limit-cycle. The port cannot count sessions in
	// constant space, but it can estimate the loop gain from its own two
	// scalars — k·u ≈ used/MACR — so the estimator caps the effective
	// gain at 1/(1+used/MACR), the deadbeat bound, keeping the loop
	// stable at any session count with O(1) state.
	DisableGainNormalization bool
	// InitialMACR seeds the estimator. 0 means "start at a tenth of the
	// target capacity": a deliberately low start, so that a port that
	// turns out to be busy does not begin by inviting a burst it must then
	// choke off (the high-start transient builds a deep queue and, in
	// binary mode, can trap sources at their floor rate).
	InitialMACR float64
	// MinMACR floors the estimate. The explicit-rate mode works with a
	// floor of zero, but the binary (CI) mode needs the allowed rate
	// u·MACR to stay above the sources' restart rate: when a transient
	// drives MACR to zero, every session is marked and sessions that have
	// decayed to their trickle rate emit RM cells so rarely that recovery
	// takes seconds. A floor of ICR/u keeps the control loop alive
	// (reconstruction choice, DESIGN.md §5).
	MinMACR float64
}

// withDefaults returns a copy of c with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.AlphaInc == 0 {
		c.AlphaInc = DefaultAlphaInc
	}
	if c.AlphaDec == 0 {
		c.AlphaDec = DefaultAlphaDec
	}
	if c.UtilizationFactor == 0 {
		c.UtilizationFactor = DefaultUtilizationFactor
	}
	if c.InitialMACR == 0 {
		c.InitialMACR = c.Capacity * DefaultTargetUtilization / 10
	}
	if c.MinMACR > 0 && c.InitialMACR < c.MinMACR {
		c.InitialMACR = c.MinMACR
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	d := c.withDefaults()
	switch {
	case d.Capacity <= 0:
		return fmt.Errorf("core: Capacity must be positive, got %v", d.Capacity)
	case d.Interval <= 0:
		return errors.New("core: Interval must be positive")
	case d.AlphaInc <= 0 || d.AlphaInc > 1:
		return fmt.Errorf("core: AlphaInc must be in (0,1], got %v", d.AlphaInc)
	case d.AlphaDec <= 0 || d.AlphaDec > 1:
		return fmt.Errorf("core: AlphaDec must be in (0,1], got %v", d.AlphaDec)
	case d.UtilizationFactor <= 0:
		return fmt.Errorf("core: UtilizationFactor must be positive, got %v", d.UtilizationFactor)
	case d.InitialMACR < 0:
		return fmt.Errorf("core: InitialMACR must be non-negative, got %v", d.InitialMACR)
	case d.MinMACR < 0 || d.MinMACR > d.Capacity:
		return fmt.Errorf("core: MinMACR must be in [0, Capacity], got %v", d.MinMACR)
	}
	return nil
}
