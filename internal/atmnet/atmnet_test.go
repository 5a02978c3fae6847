package atmnet

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/switchalg"
)

type capture struct {
	cells []atm.Cell
	times []sim.Time
}

func (cs *capture) Receive(e *sim.Engine, c atm.Cell) {
	cs.cells = append(cs.cells, c)
	cs.times = append(cs.times, e.Now())
}

func TestLinkSerializesAtLineRate(t *testing.T) {
	e := sim.NewEngine()
	dst := &capture{}
	l := NewLink("l", 1000, 0, dst) // 1000 cells/s → 1 ms per cell
	for i := 0; i < 5; i++ {
		l.Receive(e, atm.Cell{VC: atm.VCID(i)})
	}
	e.RunUntil(sim.Time(10 * sim.Millisecond))
	if len(dst.cells) != 5 {
		t.Fatalf("delivered %d, want 5", len(dst.cells))
	}
	for i, tm := range dst.times {
		want := sim.Time((i + 1) * int(sim.Millisecond))
		if tm != want {
			t.Fatalf("cell %d delivered at %v, want %v", i, tm, want)
		}
	}
	// FIFO order.
	for i, c := range dst.cells {
		if c.VC != atm.VCID(i) {
			t.Fatalf("out of order: %v", dst.cells)
		}
	}
	if l.Sent() != 5 {
		t.Fatalf("Sent = %d", l.Sent())
	}
}

func TestLinkPropagationDelay(t *testing.T) {
	e := sim.NewEngine()
	dst := &capture{}
	l := NewLink("l", 1000, 7*sim.Millisecond, dst)
	l.Receive(e, atm.Cell{})
	e.RunUntil(sim.Time(20 * sim.Millisecond))
	if len(dst.cells) != 1 {
		t.Fatal("not delivered")
	}
	if dst.times[0] != sim.Time(8*sim.Millisecond) { // 1ms tx + 7ms prop
		t.Fatalf("delivered at %v, want 8ms", dst.times[0])
	}
}

func TestLinkQueueBoundDrops(t *testing.T) {
	e := sim.NewEngine()
	dst := &capture{}
	l := NewLink("l", 1000, 0, dst)
	l.MaxQueue = 3
	var drops []atm.Cell
	l.OnDrop = func(_ sim.Time, c atm.Cell) { drops = append(drops, c) }
	for i := 0; i < 10; i++ {
		l.Receive(e, atm.Cell{VC: atm.VCID(i)})
	}
	if l.QueueLen() != 3 {
		t.Fatalf("queue = %d, want 3", l.QueueLen())
	}
	if len(drops) != 7 {
		t.Fatalf("dropped = %d, want 7", len(drops))
	}
	e.RunUntil(sim.Time(sim.Second))
	if len(dst.cells) != 3 {
		t.Fatalf("delivered %d, want 3", len(dst.cells))
	}
}

func TestLinkQueueHookAndCompaction(t *testing.T) {
	e := sim.NewEngine()
	dst := &capture{}
	l := NewLink("l", 1e6, 0, dst)
	var maxQ int
	l.OnQueue = func(_ sim.Time, q int) {
		if q > maxQ {
			maxQ = q
		}
	}
	// Two bursts to force head compaction.
	for burst := 0; burst < 2; burst++ {
		for i := 0; i < 500; i++ {
			l.Receive(e, atm.Cell{VC: atm.VCID(burst*500 + i)})
		}
		e.RunUntil(e.Now().Add(sim.Duration(600) * sim.Microsecond))
	}
	e.RunUntil(e.Now().Add(sim.Second))
	if len(dst.cells) != 1000 {
		t.Fatalf("delivered %d, want 1000", len(dst.cells))
	}
	for i, c := range dst.cells {
		if c.VC != atm.VCID(i) {
			t.Fatalf("order broken at %d: got VC %d", i, c.VC)
		}
	}
	if maxQ == 0 {
		t.Fatal("queue hook never saw a backlog")
	}
}

func TestLinkPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for rate 0")
		}
	}()
	NewLink("bad", 0, 0, &capture{})
}

func TestSwitchRoutesForwardAndBackward(t *testing.T) {
	e := sim.NewEngine()
	fwdDst, bwdDst := &capture{}, &capture{}
	sw := NewSwitch("sw")
	fp := sw.AddPort(e, NewLink("fwd", 1e6, 0, fwdDst), nil)
	bp := sw.AddPort(e, NewLink("bwd", 1e6, 0, bwdDst), nil)
	sw.Route(1, fp, bp)

	sw.Receive(e, atm.Cell{VC: 1, Kind: atm.Data})
	sw.Receive(e, atm.Cell{VC: 1, Kind: atm.ForwardRM, ER: 100})
	sw.Receive(e, atm.Cell{VC: 1, Kind: atm.BackwardRM, ER: 100})
	e.RunUntil(sim.Time(sim.Millisecond))

	if len(fwdDst.cells) != 2 {
		t.Fatalf("forward port delivered %d, want 2", len(fwdDst.cells))
	}
	if len(bwdDst.cells) != 1 || bwdDst.cells[0].Kind != atm.BackwardRM {
		t.Fatalf("backward port delivered %v", bwdDst.cells)
	}
}

// mustPanicWith runs f and requires a panic whose message contains want.
func mustPanicWith(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("%s: recovered %v, want a panic containing %q", name, r, want)
		}
	}()
	f()
}

// TestSwitchUnknownVCPanics covers every way a VC can miss the routing
// tables — beyond their end, inside them but never routed, routed one way
// only, negative — and Route's own refusal of a negative VC.
func TestSwitchUnknownVCPanics(t *testing.T) {
	e := sim.NewEngine()
	sw := NewSwitch("sw")
	mustPanicWith(t, "empty tables", "no forward route for VC 42", func() {
		sw.Receive(e, atm.Cell{VC: 42, Kind: atm.Data})
	})
	fp := sw.AddPort(e, NewLink("fwd", 1e6, 0, &capture{}), nil)
	sw.Route(5, fp, nil)
	for _, tc := range []struct {
		name, want string
		cell       atm.Cell
	}{
		{"beyond the table", "switch sw has no forward route for VC 42", atm.Cell{VC: 42, Kind: atm.Data}},
		{"hole in the table", "switch sw has no forward route for VC 3", atm.Cell{VC: 3, Kind: atm.ForwardRM}},
		{"forward only", "switch sw has no backward route for VC 5", atm.Cell{VC: 5, Kind: atm.BackwardRM}},
		{"negative, forward", "switch sw has no forward route for VC -1", atm.Cell{VC: -1, Kind: atm.Data}},
		{"negative, backward", "switch sw has no backward route for VC -1", atm.Cell{VC: -1, Kind: atm.BackwardRM}},
	} {
		mustPanicWith(t, tc.name, tc.want, func() { sw.Receive(e, tc.cell) })
	}
	mustPanicWith(t, "Route", "negative VC -7", func() { sw.Route(-7, fp, nil) })
}

// TestLinkDelayLoweredMidRunPanics: the propagation pipe pairs delivery
// events with cells by position, which only works while deliveries are
// scheduled in transmission order. Lowering Delay under cells in flight
// breaks that; the link must say so, by name, instead of delivering each
// cell at another cell's time.
func TestLinkDelayLoweredMidRunPanics(t *testing.T) {
	for _, lowered := range []sim.Duration{sim.Millisecond, 0} {
		e := sim.NewEngine()
		dst := &capture{}
		l := NewLink("trunk7", 1000, 7*sim.Millisecond, dst) // 1 ms per cell
		for i := 0; i < 3; i++ {
			l.Receive(e, atm.Cell{VC: atm.VCID(i)})
		}
		e.RunUntil(sim.Time(1500 * sim.Microsecond)) // cell 0 is propagating
		l.Delay = lowered
		mustPanicWith(t, fmt.Sprint("Delay lowered to ", lowered), `atmnet: link "trunk7": delivery time went backwards`, func() {
			e.RunUntil(sim.Time(20 * sim.Millisecond))
		})
		if len(dst.cells) != 0 {
			t.Errorf("Delay lowered to %v: %d cells delivered before the panic, want 0", lowered, len(dst.cells))
		}
	}
	// Raising it keeps the order and is fine: the cells sent after the change
	// ride another band than the one still propagating.
	e := sim.NewEngine()
	dst := &capture{}
	l := NewLink("l", 1000, 7*sim.Millisecond, dst)
	for i := 0; i < 3; i++ {
		l.Receive(e, atm.Cell{VC: atm.VCID(i)})
	}
	e.RunUntil(sim.Time(1500 * sim.Microsecond))
	l.Delay = 9 * sim.Millisecond
	e.RunUntil(sim.Time(20 * sim.Millisecond))
	want := []sim.Time{sim.Time(8 * sim.Millisecond), sim.Time(11 * sim.Millisecond), sim.Time(12 * sim.Millisecond)}
	for i, c := range dst.cells {
		if c.VC != atm.VCID(i) || dst.times[i] != want[i] {
			t.Fatalf("after raising Delay: cell %d is VC %d at %v, want VC %d at %v", i, c.VC, dst.times[i], i, want[i])
		}
	}
	if len(dst.cells) != 3 {
		t.Fatalf("after raising Delay: delivered %d cells, want 3", len(dst.cells))
	}
}

// TestLinkRateChangedMidRunMovesBand: a transient (scenario/events.go) halves
// RateCPS while a cell is on the line. That cell's tx-done stays on the band
// of the old cell time, where a second link's events still are; the next
// transmission goes on the band of the new one.
func TestLinkRateChangedMidRunMovesBand(t *testing.T) {
	e := sim.NewEngine()
	dst, other := &capture{}, &capture{}
	l := NewLink("l", 1000, 0, dst) // 1 ms per cell
	o := NewLink("o", 1000, 0, other)
	for i := 0; i < 3; i++ {
		l.Receive(e, atm.Cell{VC: atm.VCID(i)})
		o.Receive(e, atm.Cell{VC: atm.VCID(i)})
	}
	e.RunUntil(sim.Time(500 * sim.Microsecond))
	l.RateCPS = 500 // 2 ms per cell
	if l.tx != o.tx || l.tx != e.Band(sim.Millisecond) || e.Scheduled()-e.Fired()-e.Canceled() != 2 {
		t.Fatalf("before the first tx-done: the links' bands are %p and %p, the engine's %p; %d events pending, want 2 on one band",
			l.tx, o.tx, e.Band(sim.Millisecond), e.Scheduled()-e.Fired()-e.Canceled())
	}
	e.RunUntil(sim.Time(1500 * sim.Microsecond))
	if l.tx != e.Band(2*sim.Millisecond) || o.tx != e.Band(sim.Millisecond) {
		t.Fatalf("after the rate change l transmits on the %v band and o on the %v band, want 2ms and 1ms", l.tx.Delay(), o.tx.Delay())
	}
	e.RunUntil(sim.Time(20 * sim.Millisecond))
	for i, want := range []sim.Duration{1, 3, 5} {
		if len(dst.cells) != 3 || dst.cells[i].VC != atm.VCID(i) || dst.times[i] != sim.Time(want*sim.Millisecond) {
			t.Fatalf("slowed link delivered VCs %v at %v, want 0 1 2 at 1, 3 and 5 ms", dst.cells, dst.times)
		}
		if len(other.cells) != 3 || other.times[i] != sim.Time(sim.Duration(i+1)*sim.Millisecond) {
			t.Fatalf("the other link delivered at %v, want 1, 2 and 3 ms", other.times)
		}
	}
}

// TestLinksSharingBandsInterleave: two links of one rate and one delay have
// both their events on the same two bands. Each keeps its own FIFO, and
// between them cells arrive in (time, seq) order: at equal times the link
// that was fed first delivers first.
func TestLinksSharingBandsInterleave(t *testing.T) {
	e := sim.NewEngine()
	dst := &capture{}
	a := NewLink("a", 1000, 7*sim.Millisecond, dst)
	b := NewLink("b", 1000, 7*sim.Millisecond, dst)
	c := NewLink("c", 1000, 7*sim.Millisecond, dst)
	for i := 0; i < 3; i++ {
		a.Receive(e, atm.Cell{VC: atm.VCID(i)})
		b.Receive(e, atm.Cell{VC: atm.VCID(10 + i)})
	}
	e.RunUntil(sim.Time(500 * sim.Microsecond))
	for i := 0; i < 3; i++ {
		c.Receive(e, atm.Cell{VC: atm.VCID(20 + i)})
	}
	e.RunUntil(sim.Time(20 * sim.Millisecond))
	aw, bw, cw := a.pipe.Wire(), b.pipe.Wire(), c.pipe.Wire()
	if a.tx != b.tx || a.tx != c.tx || aw != bw || aw != cw || a.tx == aw {
		t.Fatalf("the links do not share one tx band and one wire band: tx %p %p %p, wire %p %p %p", a.tx, b.tx, c.tx, aw, bw, cw)
	}
	wantVC := []atm.VCID{0, 10, 20, 1, 11, 21, 2, 12, 22}
	wantUS := []sim.Duration{8000, 8000, 8500, 9000, 9000, 9500, 10000, 10000, 10500}
	if len(dst.cells) != len(wantVC) {
		t.Fatalf("delivered %d cells, want %d", len(dst.cells), len(wantVC))
	}
	for i := range wantVC {
		if dst.cells[i].VC != wantVC[i] || dst.times[i] != sim.Time(wantUS[i]*sim.Microsecond) {
			t.Fatalf("delivery %d is VC %d at %v, want VC %d at %v", i, dst.cells[i].VC, dst.times[i], wantVC[i], sim.Time(wantUS[i]*sim.Microsecond))
		}
	}
}

func TestSwitchBackwardRMGetsForwardPortFeedback(t *testing.T) {
	// The backward RM of VC 1 exits on the bwd port but must be clamped by
	// the *forward* port's Phantom instance.
	e := sim.NewEngine()
	fwdDst, bwdDst := &capture{}, &capture{}
	sw := NewSwitch("sw")
	cfg := core.Config{UtilizationFactor: 5, InitialMACR: 1000}
	fp := sw.AddPort(e, NewLink("fwd", 1e6, 0, fwdDst), switchalg.NewPhantom(cfg)())
	bp := sw.AddPort(e, NewLink("bwd", 1e6, 0, bwdDst), nil)
	sw.Route(1, fp, bp)

	sw.Receive(e, atm.Cell{VC: 1, Kind: atm.BackwardRM, ER: 1e9})
	e.RunUntil(sim.Time(sim.Millisecond))
	if len(bwdDst.cells) != 1 {
		t.Fatal("backward RM not delivered")
	}
	if got := bwdDst.cells[0].ER; got != 5000 { // u·InitialMACR = 5·1000
		t.Fatalf("ER = %v, want clamp to 5000", got)
	}
}

func TestSwitchMetersTransmittedCells(t *testing.T) {
	e := sim.NewEngine()
	dst := &capture{}
	sw := NewSwitch("sw")
	alg := switchalg.NewPhantom(core.Config{})().(*switchalg.Phantom)
	var residuals []float64
	alg.OnTick = func(_ sim.Time, r, _ float64) { residuals = append(residuals, r) }
	fp := sw.AddPort(e, NewLink("fwd", 1000, 0, dst), alg) // 1000 cells/s
	sw.Route(1, fp, nil)

	// Saturate the port for 100 ms.
	e.Every(sim.Millisecond, func(en *sim.Engine) {
		sw.Receive(en, atm.Cell{VC: 1, Kind: atm.Data})
	})
	e.RunUntil(sim.Time(100 * sim.Millisecond))
	if len(residuals) < 50 {
		t.Fatalf("only %d ticks", len(residuals))
	}
	// Port fully busy: residual ≈ target − 1000 = 950 − 1000 < 0.
	last := residuals[len(residuals)-1]
	if last > 0 {
		t.Fatalf("residual under saturation = %v, want ≤ 0", last)
	}
	if alg.Control().MACR() > 100 {
		t.Fatalf("MACR = %v, want near zero under saturation", alg.Control().MACR())
	}
}

func TestPortImplementsSwitchalgPort(t *testing.T) {
	var _ switchalg.Port = (*Port)(nil)
	p := &Port{Link: NewLink("l", 123, 0, &capture{})}
	if p.Capacity() != 123 || p.QueueLen() != 0 {
		t.Fatal("port view wrong")
	}
}
