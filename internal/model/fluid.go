// Package model provides the analytical fluid model of Phantom: the
// deterministic recursion the paper's equilibrium analysis linearizes.
// With k greedy sessions clamped to u·MACR on a link with measurement
// target C_t, the per-interval map is
//
//	used_n    = min(k · u · M_n, C)              (sources fill their
//	                                              allowance up to the line)
//	M_{n+1}   = clamp((1−α)·M_n + α·(C_t − used_n), 0, C_t)
//
// whose fixed point is the paper's MACR* = C_t/(1+k·u) whenever that is
// feasible. The model predicts convergence trajectories and settling times
// without running the event simulator; experiment A04 checks the discrete
// event simulation against it, closing the loop between the paper's
// analysis and our reproduction.
package model

// FluidConfig parameterizes the fluid recursion.
type FluidConfig struct {
	// Capacity is the raw line rate (units/s); Target the measurement
	// target C_t = core.DefaultTargetUtilization·Capacity.
	Capacity float64
	Target   float64
	// Sessions is k, the number of greedy sessions.
	Sessions int
	// U is the utilization factor.
	U float64
	// Alpha is the filter gain used when MACR is moving in each direction;
	// the fluid model uses a single effective gain (the adaptive rule's
	// steady value α/4 or the raw α for the fixed-gain ablation).
	AlphaInc float64
	AlphaDec float64
	// M0 is the initial MACR.
	M0 float64
}

// Equilibrium returns the fixed point MACR* = C_t/(1+k·u), clamped to the
// feasible region.
func (c FluidConfig) Equilibrium() float64 {
	if c.Sessions == 0 {
		return c.Target
	}
	return c.Target / (1 + float64(c.Sessions)*c.U)
}

// Step advances the recursion by one measurement interval.
func (c FluidConfig) Step(m float64) float64 {
	used := float64(c.Sessions) * c.U * m
	if used > c.Capacity {
		used = c.Capacity
	}
	residual := c.Target - used
	if residual < 0 {
		residual = 0 // the estimator clamps negative observations
	}
	alpha := c.AlphaInc
	if residual < m {
		alpha = c.AlphaDec
	}
	m = (1-alpha)*m + alpha*residual
	if m < 0 {
		m = 0
	}
	if m > c.Target {
		m = c.Target
	}
	return m
}

// Trajectory iterates the map n steps from M0 and returns every value
// including the start (length n+1).
func (c FluidConfig) Trajectory(n int) []float64 {
	out := make([]float64, 0, n+1)
	m := c.M0
	out = append(out, m)
	for i := 0; i < n; i++ {
		m = c.Step(m)
		out = append(out, m)
	}
	return out
}

// SettlingSteps returns the first step at which the trajectory enters and
// never again leaves the band equilibrium·(1±tol), searching up to maxN
// steps. ok is false if it never settles within maxN.
func (c FluidConfig) SettlingSteps(tol float64, maxN int) (int, bool) {
	eq := c.Equilibrium()
	lo, hi := eq*(1-tol), eq*(1+tol)
	traj := c.Trajectory(maxN)
	settled := -1
	for i, m := range traj {
		if m >= lo && m <= hi {
			if settled < 0 {
				settled = i
			}
		} else {
			settled = -1
		}
	}
	if settled < 0 {
		return 0, false
	}
	return settled, true
}
