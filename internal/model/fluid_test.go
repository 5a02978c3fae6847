package model

import (
	"math"
	"testing"
	"testing/quick"
)

func cfg() FluidConfig {
	return FluidConfig{
		Capacity: 353773.58,
		Target:   353773.58 * 0.95,
		Sessions: 2,
		U:        5,
		AlphaInc: 1.0 / 16,
		AlphaDec: 1.0 / 4,
		M0:       353773.58 * 0.95 / 10,
	}
}

func TestFluidEquilibrium(t *testing.T) {
	c := cfg()
	want := c.Target / 11
	if got := c.Equilibrium(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("equilibrium = %v, want %v", got, want)
	}
	idle := cfg()
	idle.Sessions = 0
	if idle.Equilibrium() != idle.Target {
		t.Fatal("idle equilibrium must be the full target")
	}
}

func TestFluidConvergesToEquilibrium(t *testing.T) {
	c := cfg()
	traj := c.Trajectory(2000)
	final := traj[len(traj)-1]
	eq := c.Equilibrium()
	if math.Abs(final-eq) > eq*0.001 {
		t.Fatalf("fluid final %v, equilibrium %v", final, eq)
	}
}

func TestFluidSettlingSteps(t *testing.T) {
	c := cfg()
	n, ok := c.SettlingSteps(0.05, 5000)
	if !ok {
		t.Fatal("never settled")
	}
	if n == 0 || n > 500 {
		t.Fatalf("settling steps = %d, implausible", n)
	}
	// Tighter tolerance cannot settle sooner.
	n2, ok2 := c.SettlingSteps(0.01, 5000)
	if !ok2 || n2 < n {
		t.Fatalf("tighter band settled sooner: %d < %d", n2, n)
	}
}

func TestFluidStability(t *testing.T) {
	c := cfg() // α_dec(1+k·u) = 0.25·11 = 2.75 ⇒ |1−2.75| > 1: oscillatory-divergent raw map
	if c.IsStable() {
		t.Fatal("raw α_dec=1/4 with k·u=10 should be flagged unstable")
	}
	// The adaptive rule's steady effective gain α/4 stabilizes it:
	damped := c
	damped.AlphaDec = 1.0 / 16
	damped.AlphaInc = 1.0 / 64
	if !damped.IsStable() {
		t.Fatal("damped gains should be stable")
	}
}

// Property: for any feasible (k, u, gains) the trajectory stays within
// [0, Target] and, when the linear stability condition holds, converges to
// the equilibrium.
func TestFluidBoundsAndConvergenceProperty(t *testing.T) {
	f := func(kRaw, uRaw, aRaw uint8) bool {
		c := cfg()
		c.Sessions = int(kRaw%8) + 1
		c.U = float64(uRaw%5) + 1
		alpha := (float64(aRaw%15) + 1) / 256 // small gains: stable regime
		c.AlphaInc, c.AlphaDec = alpha, alpha
		for _, m := range c.Trajectory(4000) {
			if m < 0 || m > c.Target || math.IsNaN(m) {
				return false
			}
		}
		if !c.IsStable() {
			return true // only bounds are asserted outside the stable regime
		}
		traj := c.Trajectory(20000)
		eq := c.Equilibrium()
		return math.Abs(traj[len(traj)-1]-eq) < eq*0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
