package model

import "math"

// IsStable reports whether the fixed point is locally stable: the map's
// derivative magnitude |1 − α(1 + k·u)| must be below 1 in the
// unsaturated region. This is the design constraint on α given k and u —
// the reason α_dec cannot be arbitrarily large for many sessions.
func (c FluidConfig) IsStable() bool {
	// Near equilibrium the residual moves opposite MACR, so the relevant
	// gain is the larger of the two (worst case).
	alpha := math.Max(c.AlphaInc, c.AlphaDec)
	deriv := 1 - alpha*(1+float64(c.Sessions)*c.U)
	return math.Abs(deriv) < 1
}
