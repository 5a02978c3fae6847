package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func validCfg() Config {
	return Config{Capacity: 150e6}
}

func TestConfigDefaults(t *testing.T) {
	c := validCfg().withDefaults()
	if c.TargetUtilization != DefaultTargetUtilization {
		t.Errorf("TargetUtilization = %v", c.TargetUtilization)
	}
	if c.Interval != DefaultInterval {
		t.Errorf("Interval = %v", c.Interval)
	}
	if c.AlphaInc != DefaultAlphaInc || c.AlphaDec != DefaultAlphaDec {
		t.Errorf("alphas = %v, %v", c.AlphaInc, c.AlphaDec)
	}
	if c.UtilizationFactor != DefaultUtilizationFactor {
		t.Errorf("u = %v", c.UtilizationFactor)
	}
	if c.InitialMACR != 150e6*DefaultTargetUtilization/10 {
		t.Errorf("InitialMACR = %v", c.InitialMACR)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero capacity", func(c *Config) { c.Capacity = 0 }},
		{"negative capacity", func(c *Config) { c.Capacity = -1 }},
		{"util > 1", func(c *Config) { c.TargetUtilization = 1.5 }},
		{"negative interval", func(c *Config) { c.Interval = -sim.Millisecond }},
		{"alphaInc > 1", func(c *Config) { c.AlphaInc = 2 }},
		{"alphaDec > 1", func(c *Config) { c.AlphaDec = 2 }},
		{"negative u", func(c *Config) { c.UtilizationFactor = -3 }},
		{"beta > 1", func(c *Config) { c.Beta = 2 }},
		{"negative initial", func(c *Config) { c.InitialMACR = -5 }},
	}
	for _, tc := range cases {
		c := validCfg()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config", tc.name)
		}
	}
	if err := validCfg().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestEstimatorConvergesToConstantResidual(t *testing.T) {
	m := NewMACREstimator(validCfg())
	const residual = 20e6
	for i := 0; i < 500; i++ {
		m.observe(residual)
	}
	if math.Abs(m.MACR()-residual) > residual*0.01 {
		t.Fatalf("MACR = %v, want ≈%v", m.MACR(), residual)
	}
}

func TestEstimatorClampsToTargetAndZero(t *testing.T) {
	m := NewMACREstimator(validCfg())
	target := 150e6 * DefaultTargetUtilization
	for i := 0; i < 100; i++ {
		m.observe(1e12) // absurd over-measurement
	}
	if m.MACR() > target {
		t.Fatalf("MACR %v exceeded target %v", m.MACR(), target)
	}
	for i := 0; i < 1000; i++ {
		m.observe(-1e12) // negative residual → treated as 0
	}
	if m.MACR() < 0 {
		t.Fatalf("MACR went negative: %v", m.MACR())
	}
	if m.MACR() > 1e6 {
		t.Fatalf("MACR should approach 0 under sustained congestion: %v", m.MACR())
	}
}

func TestEstimatorDecreaseFasterThanIncrease(t *testing.T) {
	// Symmetric step up vs step down from a settled state: the decrease
	// must settle sooner because AlphaDec > AlphaInc.
	settle := func() *MACREstimator {
		m := NewMACREstimator(validCfg())
		for i := 0; i < 1000; i++ {
			m.observe(50e6)
		}
		return m
	}
	stepsTo := func(m *MACREstimator, target float64) int {
		for i := 1; i <= 10000; i++ {
			m.observe(target)
			if math.Abs(m.MACR()-target) < 1e6 {
				return i
			}
		}
		return 10000
	}
	down := stepsTo(settle(), 10e6)
	up := stepsTo(settle(), 90e6)
	if down >= up {
		t.Fatalf("decrease took %d steps, increase %d; decrease must be faster", down, up)
	}
}

func TestAdaptiveGainRejectsNoiseBetterThanFixed(t *testing.T) {
	// Alternating ±20% noise around a mean: adaptive gain must produce a
	// smaller peak-to-peak wobble in MACR than the fixed-gain filter.
	run := func(disable bool) float64 {
		cfg := validCfg()
		cfg.DisableAdaptiveGain = disable
		m := NewMACREstimator(cfg)
		const mean = 40e6
		for i := 0; i < 500; i++ { // settle
			m.observe(mean)
		}
		min, max := m.MACR(), m.MACR()
		for i := 0; i < 500; i++ {
			v := mean * 1.2
			if i%2 == 0 {
				v = mean * 0.8
			}
			m.observe(v)
			if m.MACR() < min {
				min = m.MACR()
			}
			if m.MACR() > max {
				max = m.MACR()
			}
		}
		return max - min
	}
	adaptive, fixed := run(false), run(true)
	if adaptive >= fixed {
		t.Fatalf("adaptive wobble %v >= fixed wobble %v", adaptive, fixed)
	}
}

func TestAllowedRateAndClampER(t *testing.T) {
	cfg := validCfg()
	cfg.InitialMACR = 10e6
	m := NewMACREstimator(cfg)
	if got := m.AllowedRate(); got != 50e6 {
		t.Fatalf("AllowedRate = %v, want 50e6", got)
	}
	if got := m.ClampER(200e6); got != 50e6 {
		t.Fatalf("ClampER(200M) = %v, want 50e6", got)
	}
	if got := m.ClampER(30e6); got != 30e6 {
		t.Fatalf("ClampER(30M) = %v, want passthrough", got)
	}
	if !m.Exceeds(60e6) || m.Exceeds(40e6) {
		t.Fatal("Exceeds predicate wrong")
	}
}

// Property: MACR always stays within [0, target] for arbitrary observation
// streams, with and without adaptive gain.
func TestMACRBoundsProperty(t *testing.T) {
	f := func(obs []int32, disable bool) bool {
		cfg := validCfg()
		cfg.DisableAdaptiveGain = disable
		m := NewMACREstimator(cfg)
		target := cfg.Capacity * DefaultTargetUtilization
		for _, o := range obs {
			v := m.observe(float64(o) * 1e3)
			if v < 0 || v > target || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the closed loop converges to the phantom equilibrium. k greedy
// fluid sessions each sending at u·MACR; residual = C_target − k·u·MACR fed
// back. MACR must converge to C_target/(1+k·u).
func TestClosedLoopEquilibriumProperty(t *testing.T) {
	f := func(kRaw, uRaw uint8) bool {
		k := int(kRaw%10) + 1
		u := float64(uRaw%8) + 1
		cfg := validCfg()
		cfg.UtilizationFactor = u
		m := NewMACREstimator(cfg)
		target := cfg.Capacity * DefaultTargetUtilization
		for i := 0; i < 3000; i++ {
			sessionRate := m.AllowedRate()
			used := float64(k) * sessionRate
			if used > target {
				used = target // sessions cannot exceed the line
			}
			m.observe(target - used)
		}
		wantMACR := target / (1 + float64(k)*u)
		return math.Abs(m.MACR()-wantMACR) < wantMACR*0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The constant-space claim, enforced: the estimator state is a fixed set of
// scalars regardless of how many sessions pass through (nothing grows).
func TestEstimatorIsConstantSpace(t *testing.T) {
	m := NewMACREstimator(validCfg())
	// Simulate "many sessions" by many observations — no per-session state
	// can exist because the API never learns session identities.
	for i := 0; i < 100000; i++ {
		m.observe(float64(i % 100e3))
	}
	// Compile-time shape check: the struct holds exactly cfg + two floats.
	_ = struct {
		cfg  Config
		macr float64
		mdev float64
	}(*m)
}
