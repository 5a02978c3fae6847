package atm

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/workload"
)

type captureSink struct {
	cells []Cell
	times []sim.Time
}

func (cs *captureSink) Receive(e *sim.Engine, c Cell) {
	cs.cells = append(cs.cells, c)
	cs.times = append(cs.times, e.Now())
}

// TestCellFitsCacheLine is the cell path's counterpart of sim's
// TestEngineStateFillsCacheLines: a Cell is copied by value at every stage of
// a hop, and 64 bytes is both one cache line and the largest struct the
// compiler moves inline rather than through runtime.duffcopy. A new field has
// to fit in the padding or earn the slower copy.
func TestCellFitsCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Cell{}); n > 64 {
		t.Fatalf("Cell is %d bytes, want at most 64: keep the 8-byte fields first and the one-byte ones together", n)
	}
}

func TestCPSBPSRoundTrip(t *testing.T) {
	if got := BPS(CPS(150e6)); math.Abs(got-150e6) > 1e-6 {
		t.Fatalf("round trip = %v", got)
	}
	// 150 Mb/s is ≈ 353,774 cells/s.
	if cps := CPS(150e6); math.Abs(cps-353773.58) > 1 {
		t.Fatalf("CPS(150Mb) = %v", cps)
	}
}

func TestCellKindString(t *testing.T) {
	if Data.String() != "data" || ForwardRM.String() != "fRM" || BackwardRM.String() != "bRM" {
		t.Fatal("kind strings wrong")
	}
	if CellKind(99).String() != "?" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestDefaultSourceParamsValid(t *testing.T) {
	p := DefaultSourceParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	if p.Nrm != 32 || p.RDF != 256 || p.TOF != 2 || p.TCR != 10 {
		t.Fatalf("defaults drifted from the paper: %+v", p)
	}
	if math.Abs(BPS(p.ICR)-8.5e6) > 1 || math.Abs(BPS(p.PCR)-150e6) > 1 {
		t.Fatalf("rate defaults drifted: ICR=%v PCR=%v", BPS(p.ICR), BPS(p.PCR))
	}
	if math.Abs(BPS(p.AIRNrm)-42.5e6) > 1 {
		t.Fatalf("AIRNrm drifted: %v", BPS(p.AIRNrm))
	}
}

func TestSourceParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*SourceParams)
	}{
		{"zero PCR", func(p *SourceParams) { p.PCR = 0 }},
		{"ICR above PCR", func(p *SourceParams) { p.ICR = p.PCR * 2 }},
		{"negative MCR", func(p *SourceParams) { p.MCR = -1 }},
		{"negative TCR", func(p *SourceParams) { p.TCR = -1 }},
		{"tiny Nrm", func(p *SourceParams) { p.Nrm = 1 }},
		{"zero AIRNrm", func(p *SourceParams) { p.AIRNrm = 0 }},
		{"RDF below Nrm", func(p *SourceParams) { p.RDF = 10 }},
		{"zero TOF", func(p *SourceParams) { p.TOF = 0 }},
	}
	for _, tc := range cases {
		p := DefaultSourceParams()
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSourcePacesAtICR(t *testing.T) {
	e := sim.NewEngine()
	out := &captureSink{}
	src := NewSource(1, DefaultSourceParams(), workload.Greedy{}, out)
	if err := src.Start(e); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(sim.Time(10 * sim.Millisecond))
	// ICR = 8.5 Mb/s ≈ 20047 cells/s → ≈200 cells in 10 ms.
	n := len(out.cells)
	if n < 180 || n > 220 {
		t.Fatalf("sent %d cells in 10ms at ICR, want ≈200", n)
	}
	// Inter-cell gap must be ≈ 1/ICR.
	wantGap := sim.DurationOf(1, src.Params.ICR)
	for i := 2; i < 10; i++ {
		gap := out.times[i].Sub(out.times[i-1])
		if gap < wantGap-sim.Microsecond || gap > wantGap+sim.Microsecond {
			t.Fatalf("gap[%d] = %v, want ≈%v", i, gap, wantGap)
		}
	}
}

func TestSourceEmitsRMEveryNrm(t *testing.T) {
	e := sim.NewEngine()
	out := &captureSink{}
	src := NewSource(1, DefaultSourceParams(), workload.Greedy{}, out)
	if err := src.Start(e); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(sim.Time(20 * sim.Millisecond))
	nrm := src.Params.Nrm
	if len(out.cells) < 3*nrm {
		t.Fatalf("too few cells: %d", len(out.cells))
	}
	rmCount := 0
	for i, c := range out.cells {
		if c.Kind == ForwardRM {
			rmCount++
			// Every Nrm-th cell starting at index Nrm-1.
			if (i+1)%nrm != 0 {
				t.Fatalf("RM cell at index %d, want positions k·Nrm−1", i)
			}
			if c.CCR != src.acr && c.CCR <= 0 {
				t.Fatalf("RM cell CCR = %v", c.CCR)
			}
			if c.ER != src.Params.PCR {
				t.Fatalf("fresh RM cell ER = %v, want PCR", c.ER)
			}
		}
	}
	if rmCount == 0 {
		t.Fatal("no RM cells emitted")
	}
}

func TestSourceIncreaseOnCleanRM(t *testing.T) {
	e := sim.NewEngine()
	src := NewSource(1, DefaultSourceParams(), workload.Greedy{}, &captureSink{})
	if err := src.Start(e); err != nil {
		t.Fatal(err)
	}
	before := src.acr
	src.Receive(e, Cell{VC: 1, Kind: BackwardRM, ER: src.Params.PCR, CI: false})
	want := before + src.Params.AIRNrm
	if math.Abs(src.acr-want) > 1e-9 {
		t.Fatalf("ACR = %v, want %v", src.acr, want)
	}
}

func TestSourceDecreaseOnCI(t *testing.T) {
	e := sim.NewEngine()
	src := NewSource(1, DefaultSourceParams(), workload.Greedy{}, &captureSink{})
	if err := src.Start(e); err != nil {
		t.Fatal(err)
	}
	// Pump the rate up first.
	for i := 0; i < 10; i++ {
		src.Receive(e, Cell{VC: 1, Kind: BackwardRM, ER: src.Params.PCR})
	}
	before := src.acr
	src.Receive(e, Cell{VC: 1, Kind: BackwardRM, ER: src.Params.PCR, CI: true})
	want := before * (1 - float64(src.Params.Nrm)/src.Params.RDF)
	if math.Abs(src.acr-want) > 1e-6 {
		t.Fatalf("ACR = %v, want %v (12.5%% decrease)", src.acr, want)
	}
}

func TestSourceHoldsOnNI(t *testing.T) {
	e := sim.NewEngine()
	src := NewSource(1, DefaultSourceParams(), workload.Greedy{}, &captureSink{})
	if err := src.Start(e); err != nil {
		t.Fatal(err)
	}
	before := src.acr
	src.Receive(e, Cell{VC: 1, Kind: BackwardRM, ER: src.Params.PCR, NI: true})
	if src.acr != before {
		t.Fatalf("ACR changed on NI: %v → %v", before, src.acr)
	}
	// CI dominates NI: both set → decrease.
	src.Receive(e, Cell{VC: 1, Kind: BackwardRM, ER: src.Params.PCR, NI: true, CI: true})
	if src.acr >= before {
		t.Fatalf("CI+NI did not decrease: %v", src.acr)
	}
}

func TestSourceClampsToERAndPCR(t *testing.T) {
	e := sim.NewEngine()
	src := NewSource(1, DefaultSourceParams(), workload.Greedy{}, &captureSink{})
	if err := src.Start(e); err != nil {
		t.Fatal(err)
	}
	// ER below current ACR forces an immediate cut.
	src.Receive(e, Cell{VC: 1, Kind: BackwardRM, ER: 5000})
	if src.acr != 5000 {
		t.Fatalf("ACR = %v, want clamp to ER 5000", src.acr)
	}
	// Huge ER: rises additively, never past PCR.
	for i := 0; i < 100; i++ {
		src.Receive(e, Cell{VC: 1, Kind: BackwardRM, ER: 1e12})
	}
	if src.acr > src.Params.PCR {
		t.Fatalf("ACR %v exceeded PCR %v", src.acr, src.Params.PCR)
	}
}

func TestSourceFloorsAtTCR(t *testing.T) {
	e := sim.NewEngine()
	src := NewSource(1, DefaultSourceParams(), workload.Greedy{}, &captureSink{})
	if err := src.Start(e); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		src.Receive(e, Cell{VC: 1, Kind: BackwardRM, ER: 1e12, CI: true})
	}
	if src.acr != src.Params.TCR {
		t.Fatalf("ACR = %v, want floor at TCR %v", src.acr, src.Params.TCR)
	}
}

func TestSourceIgnoresForeignCells(t *testing.T) {
	e := sim.NewEngine()
	src := NewSource(1, DefaultSourceParams(), workload.Greedy{}, &captureSink{})
	if err := src.Start(e); err != nil {
		t.Fatal(err)
	}
	before := src.acr
	src.Receive(e, Cell{VC: 2, Kind: BackwardRM, ER: 1}) // other VC
	src.Receive(e, Cell{VC: 1, Kind: Data})              // wrong kind
	if src.acr != before {
		t.Fatal("foreign cell changed ACR")
	}
}

func TestSourceOnOffPattern(t *testing.T) {
	e := sim.NewEngine()
	out := &captureSink{}
	p := DefaultSourceParams()
	src := NewSource(1, p, workload.PeriodicOnOff{
		Start: 0,
		On:    5 * sim.Millisecond,
		Off:   5 * sim.Millisecond,
	}, out)
	if err := src.Start(e); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(sim.Time(20 * sim.Millisecond))
	var inOn, inOff int
	for _, tm := range out.times {
		phase := int64(tm) / int64(5*sim.Millisecond)
		if phase%2 == 0 {
			inOn++
		} else {
			inOff++
		}
	}
	if inOn == 0 {
		t.Fatal("no cells in on-phase")
	}
	if inOff > 0 {
		t.Fatalf("%d cells sent during off-phase", inOff)
	}
}

func TestSourceACRRetentionAfterIdle(t *testing.T) {
	e := sim.NewEngine()
	out := &captureSink{}
	p := DefaultSourceParams()
	// 2ms on, 20ms off: the off gap vastly exceeds TOF·Nrm/ACR.
	src := NewSource(1, p, workload.PeriodicOnOff{
		Start: 0,
		On:    2 * sim.Millisecond,
		Off:   20 * sim.Millisecond,
	}, out)
	if err := src.Start(e); err != nil {
		t.Fatal(err)
	}
	// Pump ACR far above ICR during the first on-phase.
	e.At(sim.Time(sim.Millisecond), func(en *sim.Engine) {
		for i := 0; i < 20; i++ {
			src.Receive(en, Cell{VC: 1, Kind: BackwardRM, ER: p.PCR})
		}
	})
	e.RunUntil(sim.Time(2 * sim.Millisecond))
	if src.acr <= p.ICR {
		t.Fatalf("setup failed: ACR %v not above ICR", src.acr)
	}
	// Run through the idle gap into the next on-phase.
	e.RunUntil(sim.Time(23 * sim.Millisecond))
	if src.acr != p.ICR {
		t.Fatalf("ACR after long idle = %v, want reset to ICR %v", src.acr, p.ICR)
	}
}

func TestSourceRateChangeCallback(t *testing.T) {
	e := sim.NewEngine()
	src := NewSource(1, DefaultSourceParams(), workload.Greedy{}, &captureSink{})
	var changes int
	src.OnRateChange = func(sim.Time, float64) { changes++ }
	if err := src.Start(e); err != nil {
		t.Fatal(err)
	}
	if changes != 1 { // initial ICR set
		t.Fatalf("changes = %d after Start, want 1", changes)
	}
	src.Receive(e, Cell{VC: 1, Kind: BackwardRM, ER: src.Params.PCR})
	if changes != 2 {
		t.Fatalf("changes = %d after RM, want 2", changes)
	}
}

func TestSourceStartRejectsBadParams(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultSourceParams()
	p.PCR = -1
	src := NewSource(1, p, workload.Greedy{}, &captureSink{})
	if err := src.Start(e); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestDestCountsAndTurnsAround(t *testing.T) {
	e := sim.NewEngine()
	back := &captureSink{}
	d := NewDest(7, back)
	var delivered int
	d.OnDeliver = func(sim.Time, Cell) { delivered++ }
	for i := 0; i < 5; i++ {
		d.Receive(e, Cell{VC: 7, Kind: Data})
	}
	d.Receive(e, Cell{VC: 7, Kind: ForwardRM, CCR: 123, ER: 456})
	if d.DataCells() != 5 || delivered != 5 {
		t.Fatalf("data cells = %d/%d, want 5", d.DataCells(), delivered)
	}
	if len(back.cells) != 1 {
		t.Fatalf("backward cells = %d, want 1", len(back.cells))
	}
	b := back.cells[0]
	if b.Kind != BackwardRM || b.CCR != 123 || b.ER != 456 || b.CI {
		t.Fatalf("turnaround cell wrong: %+v", b)
	}
}

func TestDestFoldsEFCIIntoCI(t *testing.T) {
	e := sim.NewEngine()
	back := &captureSink{}
	d := NewDest(7, back)
	d.Receive(e, Cell{VC: 7, Kind: Data, EFCI: true})
	d.Receive(e, Cell{VC: 7, Kind: ForwardRM, ER: 1})
	if !back.cells[0].CI {
		t.Fatal("EFCI not folded into CI")
	}
	// The mark is consumed: next RM without new EFCI is clean.
	d.Receive(e, Cell{VC: 7, Kind: ForwardRM, ER: 1})
	if back.cells[1].CI {
		t.Fatal("stale EFCI leaked into second RM")
	}
}

func TestDestIgnoresForeignAndBackwardCells(t *testing.T) {
	e := sim.NewEngine()
	back := &captureSink{}
	d := NewDest(7, back)
	d.Receive(e, Cell{VC: 9, Kind: Data})
	d.Receive(e, Cell{VC: 7, Kind: BackwardRM})
	if d.DataCells() != 0 || len(back.cells) != 0 {
		t.Fatal("foreign/backward cells had effect")
	}
}
