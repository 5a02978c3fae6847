package core

// observe folds one interval's residual into m, taking the port's load to
// be the rest of the target: ObserveLoad with usedRate = target − residual.
func (m *MACREstimator) observe(residual float64) float64 {
	return m.ObserveLoad(residual, m.cfg.Capacity*DefaultTargetUtilization-residual)
}
