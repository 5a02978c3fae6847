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
	if math.Abs(alg.FairShare()-65000) > 1 {
		t.Fatalf("share = %v, want 65000", alg.FairShare())
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
	if alg.FairShare() != 95000 {
		t.Fatalf("share = %v, want full target", alg.FairShare())
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
	if math.Abs(alg.FairShare()-95000.0/4) > 1 {
		t.Fatalf("share = %v, want equal split %v", alg.FairShare(), 95000.0/4)
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
	if math.Abs(alg.FairShare()-95000.0/2) > 1 {
		t.Fatalf("setup: share = %v", alg.FairShare())
	}
	// Keep VC 1 alive; let VC 2 expire (default expiry 50 ms).
	e.Every(10*sim.Millisecond, call, sim.Payload{Obj: func(en *sim.Engine) {
		alg.OnForwardRM(en.Now(), &atm.Cell{VC: 1, CCR: 90000})
	}})
	e.RunUntil(sim.Time(200 * sim.Millisecond))
	if len(alg.demands) != 1 {
		t.Fatalf("sessions = %d after expiry, want 1", len(alg.demands))
	}
	if math.Abs(alg.FairShare()-95000) > 1 {
		t.Fatalf("share after expiry = %v, want full target", alg.FairShare())
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

// Float subtraction is order-sensitive: three unequal demands that
// saturate in one pass leave a remainder, and so a share, that depends on
// the order they are subtracted in. The fill takes them in VC order, so
// the share is the same however the demand map was filled or iterates.
func TestExactMaxMinShareIgnoresMapOrder(t *testing.T) {
	// Each saturates under the first equal split, 95000/5 = 19000; the two
	// 90000 demands never do. Subtracted in other orders, these three give
	// shares one ulp apart.
	small := []float64{2553.786273891511, 16101.393568070484, 14511.95398593669}
	p := &fakePort{cap: 100000}
	capacity := p.cap * exactTargetUtil
	want := (capacity - small[0] - small[1] - small[2]) / 2
	for run := 0; run < 50; run++ {
		e := sim.NewEngine()
		alg := NewExactMaxMin()().(*ExactMaxMin)
		alg.Attach(e, p)
		// Insert VCs 1–5 (1–3 the small demands) starting at a different
		// one each run.
		for k := 0; k < 5; k++ {
			vc := (run+k)%5 + 1
			ccr := 90000.0
			if vc <= 3 {
				ccr = small[vc-1]
			}
			alg.OnForwardRM(0, &atm.Cell{VC: atm.VCID(vc), CCR: ccr})
		}
		e.RunUntil(sim.Time(sim.Millisecond))
		if got := alg.FairShare(); got != want {
			t.Fatalf("run %d: share = %v, want %v (demands subtracted in VC order)", run, got, want)
		}
	}
}
