package switchalg

import (
	"math"
	"testing"

	"repro/internal/atm"
	"repro/internal/sim"
)

func TestExactMaxMinWaterFilling(t *testing.T) {
	e := sim.NewEngine()
	p := &fakePort{cap: 100000}
	alg := NewExactMaxMin()().(*ExactMaxMin)
	alg.Attach(e, p)
	// capacity·0.95 = 95000. Demands: 10k, 20k, 80k.
	alg.OnForwardRM(0, &atm.Cell{VC: 1, CCR: 10000})
	alg.OnForwardRM(0, &atm.Cell{VC: 2, CCR: 20000})
	alg.OnForwardRM(0, &atm.Cell{VC: 3, CCR: 80000})
	e.RunUntil(sim.Time(sim.Millisecond)) // one recompute tick
	// Water-fill: 10k and 20k satisfied; remaining 65k to VC 3 → share 65k.
	if math.Abs(alg.Share()-65000) > 1 {
		t.Fatalf("share = %v, want 65000", alg.Share())
	}
	if len(alg.demands) != 3 {
		t.Fatalf("sessions = %d", len(alg.demands))
	}
	// Backward RM clamps to the share.
	c := atm.Cell{Kind: atm.BackwardRM, ER: 1e9}
	alg.OnBackwardRM(0, &c)
	if math.Abs(c.ER-65000) > 1 {
		t.Fatalf("ER = %v", c.ER)
	}
}

func TestExactMaxMinAllSatisfied(t *testing.T) {
	e := sim.NewEngine()
	p := &fakePort{cap: 100000}
	alg := NewExactMaxMin()().(*ExactMaxMin)
	alg.Attach(e, p)
	alg.OnForwardRM(0, &atm.Cell{VC: 1, CCR: 10000})
	alg.OnForwardRM(0, &atm.Cell{VC: 2, CCR: 10000})
	e.RunUntil(sim.Time(sim.Millisecond))
	// Total demand far below capacity: the share opens up to the full
	// target so sessions may grow.
	if alg.Share() != 95000 {
		t.Fatalf("share = %v, want full target", alg.Share())
	}
}

func TestExactMaxMinOverloadEqualSplit(t *testing.T) {
	e := sim.NewEngine()
	p := &fakePort{cap: 100000}
	alg := NewExactMaxMin()().(*ExactMaxMin)
	alg.Attach(e, p)
	for vc := 1; vc <= 4; vc++ {
		alg.OnForwardRM(0, &atm.Cell{VC: atm.VCID(vc), CCR: 90000})
	}
	e.RunUntil(sim.Time(sim.Millisecond))
	if math.Abs(alg.Share()-95000.0/4) > 1 {
		t.Fatalf("share = %v, want equal split %v", alg.Share(), 95000.0/4)
	}
}

func TestExactMaxMinExpiresIdleVCs(t *testing.T) {
	e := sim.NewEngine()
	p := &fakePort{cap: 100000}
	alg := NewExactMaxMin()().(*ExactMaxMin)
	alg.Attach(e, p)
	alg.OnForwardRM(0, &atm.Cell{VC: 1, CCR: 90000})
	alg.OnForwardRM(0, &atm.Cell{VC: 2, CCR: 90000})
	e.RunUntil(sim.Time(sim.Millisecond))
	if math.Abs(alg.Share()-95000.0/2) > 1 {
		t.Fatalf("setup: share = %v", alg.Share())
	}
	// Keep VC 1 alive; let VC 2 expire (default expiry 50 ms).
	e.Every(10*sim.Millisecond, func(en *sim.Engine) {
		alg.OnForwardRM(en.Now(), &atm.Cell{VC: 1, CCR: 90000})
	})
	e.RunUntil(sim.Time(200 * sim.Millisecond))
	if len(alg.demands) != 1 {
		t.Fatalf("sessions = %d after expiry, want 1", len(alg.demands))
	}
	if math.Abs(alg.Share()-95000) > 1 {
		t.Fatalf("share after expiry = %v, want full target", alg.Share())
	}
}

func TestExactMaxMinIsUnboundedSpace(t *testing.T) {
	// The contrast with the constant-space class: state grows with VCs.
	e := sim.NewEngine()
	p := &fakePort{cap: 100000}
	alg := NewExactMaxMin()().(*ExactMaxMin)
	alg.Attach(e, p)
	for vc := 0; vc < 1000; vc++ {
		alg.OnForwardRM(0, &atm.Cell{VC: atm.VCID(vc), CCR: 1})
	}
	if len(alg.demands) != 1000 {
		t.Fatalf("sessions = %d, want state to grow with VCs", len(alg.demands))
	}
}
