package switchalg

import (
	"math"
	"testing"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
)

// fakePort is a controllable Port for unit tests.
type fakePort struct {
	q   int
	cap float64
}

func (f *fakePort) QueueLen() int     { return f.q }
func (f *fakePort) Capacity() float64 { return f.cap }

const lineCPS = 353773.58 // 150 Mb/s in cells/s

// observeResidual runs pc through 2000 one-millisecond intervals, each
// transmitting all of the target but residual cells/s.
func observeResidual(pc *core.PortControl, residual float64) {
	cfg := pc.Config()
	for i := 1; i <= 2000; i++ {
		pc.Transmitted((cfg.Capacity*cfg.TargetUtilization - residual) / 1000)
		pc.Tick(sim.Time(i) * sim.Time(sim.Millisecond))
	}
}

func TestPhantomERClampsBackwardRM(t *testing.T) {
	e := sim.NewEngine()
	p := &fakePort{cap: lineCPS}
	alg := NewPhantom(core.Config{UtilizationFactor: 5})()
	alg.Attach(e, p)
	ph := alg.(*Phantom)

	// Drive the estimator to a known MACR by direct observation.
	observeResidual(ph.Control(), 10000)
	c := atm.Cell{Kind: atm.BackwardRM, ER: 1e9}
	alg.OnBackwardRM(0, &c)
	want := 5 * ph.Control().MACR()
	if math.Abs(c.ER-want) > 1 {
		t.Fatalf("ER = %v, want u·MACR = %v", c.ER, want)
	}
	// ER below allowed rate passes through untouched.
	c2 := atm.Cell{Kind: atm.BackwardRM, ER: want / 2}
	alg.OnBackwardRM(0, &c2)
	if c2.ER != want/2 {
		t.Fatalf("low ER modified: %v", c2.ER)
	}
	if c2.CI {
		t.Fatal("ER mode must not set CI")
	}
}

func TestPhantomCIModeMarksExceeders(t *testing.T) {
	e := sim.NewEngine()
	p := &fakePort{cap: lineCPS}
	alg := NewPhantomCI(core.Config{UtilizationFactor: 5})()
	alg.Attach(e, p)
	ph := alg.(*Phantom)
	if !ph.BinaryMode {
		t.Fatal("NewPhantomCI built the ER mode")
	}
	observeResidual(ph.Control(), 10000)
	allowed := ph.Control().AllowedRate()
	over := atm.Cell{Kind: atm.BackwardRM, CCR: allowed * 1.2, ER: 1e9}
	alg.OnBackwardRM(0, &over)
	if !over.CI {
		t.Fatal("exceeder not marked")
	}
	if over.ER != 1e9 {
		t.Fatal("CI mode must not write ER")
	}
	under := atm.Cell{Kind: atm.BackwardRM, CCR: allowed * 0.8, ER: 1e9}
	alg.OnBackwardRM(0, &under)
	if under.CI || under.NI {
		t.Fatal("compliant session marked")
	}
	// The hysteresis band just under the allowed rate gets NI, not CI.
	band := atm.Cell{Kind: atm.BackwardRM, CCR: allowed * 0.9, ER: 1e9}
	alg.OnBackwardRM(0, &band)
	if band.CI || !band.NI {
		t.Fatalf("band session marks wrong: CI=%v NI=%v", band.CI, band.NI)
	}
}

func TestPhantomMetersTransmissions(t *testing.T) {
	e := sim.NewEngine()
	p := &fakePort{cap: 1000} // 1000 cells/s for easy math
	alg := NewPhantom(core.Config{})()
	alg.Attach(e, p)
	ph := alg.(*Phantom)
	var residuals []float64
	ph.OnTick = func(_ sim.Time, r, _ float64) { residuals = append(residuals, r) }
	// Transmit 475 cells over half a second (950 cells/s = full target).
	e.Every(sim.Millisecond, func(en *sim.Engine) {
		if en.Now() <= sim.Time(500*sim.Millisecond) {
			for i := 0; i < 1; i++ {
				alg.OnTransmit(en.Now(), &atm.Cell{})
			}
		}
	})
	e.RunUntil(sim.Time(100 * sim.Millisecond))
	if len(residuals) == 0 {
		t.Fatal("no interval ticks")
	}
	// 1 cell per ms = 1000 cells/s > target 950 → residual ≈ -50 → clamped
	// inside the estimator but reported raw here.
	last := residuals[len(residuals)-1]
	if last > 0 {
		t.Fatalf("residual = %v, want negative under overload", last)
	}
}

func TestEPRCADefaultsAndAveraging(t *testing.T) {
	e := sim.NewEngine()
	p := &fakePort{cap: lineCPS}
	alg := NewEPRCA()()
	alg.Attach(e, p)
	a := alg.(*EPRCA)
	// First forward RM seeds MACR.
	alg.OnForwardRM(0, &atm.Cell{Kind: atm.ForwardRM, CCR: 1000})
	if a.MACR() != 1000 {
		t.Fatalf("seed MACR = %v", a.MACR())
	}
	alg.OnForwardRM(0, &atm.Cell{Kind: atm.ForwardRM, CCR: 2000})
	want := 1000 + (2000-1000)/16.0
	if math.Abs(a.MACR()-want) > 1e-9 {
		t.Fatalf("MACR = %v, want %v", a.MACR(), want)
	}
}

func TestEPRCAQueueThresholdFeedback(t *testing.T) {
	e := sim.NewEngine()
	p := &fakePort{cap: lineCPS}
	alg := NewEPRCA()()
	alg.Attach(e, p)
	alg.OnForwardRM(0, &atm.Cell{CCR: 10000}) // MACR = 10000

	// Uncongested: no feedback.
	p.q = 50
	c := atm.Cell{Kind: atm.BackwardRM, CCR: 20000, ER: 1e9}
	alg.OnBackwardRM(0, &c)
	if c.ER != 1e9 || c.CI {
		t.Fatal("uncongested port gave feedback")
	}

	// Congested: only sessions above MACR·DPF are reduced, to MACR·ERF.
	p.q = 500
	fast := atm.Cell{Kind: atm.BackwardRM, CCR: 20000, ER: 1e9}
	alg.OnBackwardRM(0, &fast)
	if math.Abs(fast.ER-10000*15.0/16) > 1e-9 {
		t.Fatalf("fast session ER = %v, want MACR·ERF", fast.ER)
	}
	slow := atm.Cell{Kind: atm.BackwardRM, CCR: 1000, ER: 1e9}
	alg.OnBackwardRM(0, &slow)
	if slow.ER != 1e9 {
		t.Fatalf("slow session reduced: %v", slow.ER)
	}

	// Very congested: everyone cut to MACR·MRF with CI.
	p.q = 2000
	any := atm.Cell{Kind: atm.BackwardRM, CCR: 1000, ER: 1e9}
	alg.OnBackwardRM(0, &any)
	if math.Abs(any.ER-10000/4.0) > 1e-9 || !any.CI {
		t.Fatalf("very congested: ER=%v CI=%v", any.ER, any.CI)
	}
}

func TestAPRCDerivativeDetection(t *testing.T) {
	e := sim.NewEngine()
	p := &fakePort{cap: lineCPS}
	alg := NewAPRC()()
	alg.Attach(e, p)
	a := alg.(*APRC)
	if a.VQT != 300 {
		t.Fatalf("paper config drifted: VQT=%d", a.VQT)
	}
	alg.OnForwardRM(0, &atm.Cell{CCR: 10000})

	// Queue steady at a small value: after two samples, not rising.
	p.q = 40
	e.RunUntil(sim.Time(250 * sim.Microsecond))
	c := atm.Cell{Kind: atm.BackwardRM, CCR: 20000, ER: 1e9}
	alg.OnBackwardRM(e.Now(), &c)
	if c.ER != 1e9 {
		t.Fatalf("steady queue triggered reduction: %v", c.ER)
	}

	// Growing queue: derivative fires even though q is tiny (well below
	// EPRCA's threshold) — APRC reacts earlier.
	p.q = 80
	e.RunUntil(e.Now().Add(100 * sim.Microsecond)) // one more sample (t=300µs)
	c2 := atm.Cell{Kind: atm.BackwardRM, CCR: 20000, ER: 1e9}
	alg.OnBackwardRM(e.Now(), &c2)
	if math.Abs(c2.ER-10000*15.0/16) > 1e-9 {
		t.Fatalf("growing queue not detected: ER = %v", c2.ER)
	}

	// Very congested threshold (300 cells, paper config).
	p.q = 400
	c3 := atm.Cell{Kind: atm.BackwardRM, CCR: 100, ER: 1e9}
	alg.OnBackwardRM(e.Now(), &c3)
	if math.Abs(c3.ER-10000/4.0) > 1e-9 || !c3.CI {
		t.Fatalf("very congested: ER=%v CI=%v", c3.ER, c3.CI)
	}
}

func TestCAPCLoadFactorControl(t *testing.T) {
	e := sim.NewEngine()
	p := &fakePort{cap: 100000}
	alg := NewCAPC()()
	alg.Attach(e, p)
	a := alg.(*CAPC)
	ers0 := a.ERS()

	// No arrivals → z = 0 → ERS grows by factor 1+Rup each tick.
	e.RunUntil(sim.Time(sim.Millisecond))
	if a.ERS() <= ers0 {
		t.Fatalf("idle port: ERS %v did not grow from %v", a.ERS(), ers0)
	}

	// Overload: arrivals at 2× target → ERS shrinks.
	before := a.ERS()
	for i := 0; i < int(2*0.95*100000/1000); i++ { // 2× target in 1 ms
		alg.OnArrival(e.Now(), &atm.Cell{})
	}
	e.RunUntil(sim.Time(2 * sim.Millisecond))
	if a.ERS() >= before {
		t.Fatalf("overload: ERS %v did not shrink from %v", a.ERS(), before)
	}
	// Shrink factor bounded below by ERF = 0.5.
	if a.ERS() < before*0.5-1e-9 {
		t.Fatalf("ERS shrank past ERF bound: %v < %v·0.5", a.ERS(), before)
	}
}

func TestCAPCBackwardFeedback(t *testing.T) {
	e := sim.NewEngine()
	p := &fakePort{cap: 100000}
	alg := NewCAPC()()
	alg.Attach(e, p)
	a := alg.(*CAPC)

	c := atm.Cell{Kind: atm.BackwardRM, ER: 1e9}
	alg.OnBackwardRM(0, &c)
	if c.ER != a.ERS() {
		t.Fatalf("ER = %v, want ERS %v", c.ER, a.ERS())
	}
	if c.CI {
		t.Fatal("CI set with empty queue")
	}
	p.q = 100 // above CQT=50
	c2 := atm.Cell{Kind: atm.BackwardRM, ER: 1e9}
	alg.OnBackwardRM(0, &c2)
	if !c2.CI {
		t.Fatal("CI not set above CQT")
	}
}

func TestCAPCNeverStops(t *testing.T) {
	e := sim.NewEngine()
	p := &fakePort{cap: 100000}
	alg := NewCAPC()()
	alg.Attach(e, p)
	a := alg.(*CAPC)
	// Sustained massive overload cannot drive ERS to zero.
	for i := 0; i < 200; i++ {
		for j := 0; j < 1000; j++ {
			alg.OnArrival(0, &atm.Cell{})
		}
		a.tick(sim.Time((i + 1) * int(sim.Millisecond)))
	}
	if a.ERS() < 1 {
		t.Fatalf("ERS collapsed to %v", a.ERS())
	}
}

func TestCAPCBoundsGrowthByERU(t *testing.T) {
	e := sim.NewEngine()
	p := &fakePort{cap: 100000}
	alg := NewCAPC()()
	alg.Attach(e, p)
	a := alg.(*CAPC)
	a.Rup = 100 // absurd gain: growth must still be capped at ERU=1.5
	before := a.ERS()
	a.tick(sim.Time(sim.Millisecond))
	if a.ERS() > before*1.5+1e-9 {
		t.Fatalf("growth exceeded ERU: %v from %v", a.ERS(), before)
	}
}

// The paper's taxonomy: all four algorithms keep constant space. Feed many
// distinct VCs through each and verify no per-VC structures exist (none of
// the structs contain maps or slices keyed by VC; this test documents the
// claim by exercising thousands of VCs and relying on the struct
// definitions, which contain only scalars).
func TestAlgorithmsAreConstantSpace(t *testing.T) {
	e := sim.NewEngine()
	for _, f := range []Factory{
		NewPhantom(core.Config{}), NewPhantomCI(core.Config{}),
		NewEPRCA(), NewAPRC(), NewCAPC(),
	} {
		alg := f()
		alg.Attach(e, &fakePort{cap: lineCPS})
		for vc := 0; vc < 5000; vc++ {
			c := atm.Cell{VC: atm.VCID(vc), Kind: atm.ForwardRM, CCR: float64(vc), ER: 1e9}
			alg.OnArrival(0, &c)
			alg.OnForwardRM(0, &c)
			alg.OnTransmit(0, &c)
			b := atm.Cell{VC: atm.VCID(vc), Kind: atm.BackwardRM, CCR: float64(vc), ER: 1e9}
			alg.OnBackwardRM(0, &b)
		}
	}
	// Structural check via the type system: the algorithm structs hold only
	// scalar fields, function pointers and references to their port —
	// nothing keyed by VC. (See struct definitions; EPRCA shown here.)
	var a EPRCA
	_ = struct {
		AV            float64
		QT, DQT       int
		DPF, ERF, MRF float64
		OnMACR        func(sim.Time, float64)
		macr          float64
		port          Port
	}{a.AV, a.QT, a.DQT, a.DPF, a.ERF, a.MRF, a.OnMACR, a.macr, a.port}
}

func TestNoneFactory(t *testing.T) {
	if None() != nil {
		t.Fatal("None() should be nil")
	}
}
