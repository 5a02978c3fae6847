package ip

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/sim"
)

type pktCapture struct {
	pkts  []*Packet
	times []sim.Time
}

func (pc *pktCapture) Receive(e *sim.Engine, p *Packet) {
	pc.pkts = append(pc.pkts, p)
	pc.times = append(pc.times, e.Now())
}

func TestPacketSizes(t *testing.T) {
	data := &Packet{Len: 512}
	if data.SizeBytes() != 552 || data.SizeBits() != 552*8 {
		t.Fatalf("data size = %d/%v", data.SizeBytes(), data.SizeBits())
	}
	ack := &Packet{Ack: true}
	if ack.SizeBytes() != 40 {
		t.Fatalf("ack size = %d", ack.SizeBytes())
	}
}

// TestPacketFitsSixWords holds the pooled packet header at 48 bytes: five
// 8-byte fields and the two flags packed into the last word. A flag placed
// between two 8-byte fields pads itself out to a word of its own.
func TestPacketFitsSixWords(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 48 {
		t.Fatalf("Packet is %d bytes, want at most 48: keep the 8-byte fields first and the one-byte flags together", n)
	}
}

func TestPortSerializesByPacketSize(t *testing.T) {
	e := sim.NewEngine()
	dst := &pktCapture{}
	// 552 bytes at 552*8 bits/ms = 4.416 Mb/s → 1 ms per data packet.
	p := NewPort("p", 552*8*1000, 0, dst)
	p.Receive(e, &Packet{Len: 512})
	p.Receive(e, &Packet{Len: 512})
	e.RunUntil(sim.Time(10 * sim.Millisecond))
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d", len(dst.pkts))
	}
	if dst.times[0] != sim.Time(sim.Millisecond) || dst.times[1] != sim.Time(2*sim.Millisecond) {
		t.Fatalf("times = %v", dst.times)
	}
	if p.SentBytes() != 1104 {
		t.Fatalf("sent bytes = %d", p.SentBytes())
	}
}

func TestPortTailDrop(t *testing.T) {
	e := sim.NewEngine()
	dst := &pktCapture{}
	p := NewPort("p", 1e6, 0, dst)
	p.MaxQueue = 2
	var reasons []string
	p.OnDrop = func(_ sim.Time, _ *Packet, r string) { reasons = append(reasons, r) }
	var pkts [5]*Packet
	for i := range pkts {
		pkts[i] = &Packet{Len: 512}
		p.Receive(e, pkts[i])
	}
	if p.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", p.Dropped())
	}
	for _, r := range reasons {
		if r != "tail" {
			t.Fatalf("reason = %q", r)
		}
	}
	// The backlog is the two packets admitted first.
	if n := pkts[0].SizeBytes() + pkts[1].SizeBytes(); p.QueueLen() != 2 || n != 2*552 {
		t.Fatalf("queued %d packets of %d bytes, want 2 of %d", p.QueueLen(), n, 2*552)
	}
}

// TestPortDroppedCountsEveryCause pins what Dropped counts: injected loss
// (which Lost counts as well), the discipline's verdicts and the tail bound,
// each dropped packet once. Every dropped packet is released after OnDrop.
func TestPortDroppedCountsEveryCause(t *testing.T) {
	e := sim.NewEngine()
	p := NewPort("p", 1e6, 0, &pktCapture{}) // slow: the queue builds
	p.MaxQueue = 12
	p.LossRate = 0.1
	p.LossSeed = 3
	red := NewRED(7)
	red.wq = 0.5
	p.Attach(e, red)
	byReason := map[string]int64{}
	p.OnDrop = func(_ sim.Time, pkt *Packet, r string) {
		if pkt.Flow != 1 {
			t.Errorf("OnDrop saw %+v", pkt)
		}
		byReason[r]++
	}
	pkts := make([]*Packet, 400)
	for i := range pkts {
		pkts[i] = &Packet{Flow: 1, Len: 512}
		p.Receive(e, pkts[i])
	}
	loss, disc, tail := byReason["loss"], byReason[red.Name()], byReason["tail"]
	if loss == 0 || disc == 0 || tail == 0 || len(byReason) != 3 {
		t.Fatalf("drops by reason = %v, want loss, %s and tail all present", byReason, red.Name())
	}
	if p.Dropped() != loss+disc+tail {
		t.Errorf("Dropped() = %d, want loss %d + disc %d + tail %d", p.Dropped(), loss, disc, tail)
	}
	var released int64
	for _, pkt := range pkts {
		if pkt.Flow == -1 {
			released++
		}
	}
	if released != p.Dropped() {
		t.Errorf("%d packets released, %d dropped", released, p.Dropped())
	}
}

// TestPortDelayLoweredMidRunPanics: the propagation pipe pairs delivery
// events with packets by position, which only works while deliveries are
// scheduled in transmission order. Lowering Delay under packets in flight
// breaks that; the port must say so, by name, instead of delivering each
// packet at another packet's time.
func TestPortDelayLoweredMidRunPanics(t *testing.T) {
	// 552 bytes at 552*8 bits/ms → 1 ms per data packet.
	const rate = 552 * 8 * 1000
	mustPanicWith := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("%s: recovered %v, want a panic containing %q", name, r, want)
			}
		}()
		f()
	}
	for _, lowered := range []sim.Duration{sim.Millisecond, 0} {
		e := sim.NewEngine()
		dst := &pktCapture{}
		p := NewPort("trunk7", rate, 7*sim.Millisecond, dst)
		for i := 0; i < 3; i++ {
			p.Receive(e, &Packet{Seq: int64(i), Len: 512})
		}
		e.RunUntil(sim.Time(1500 * sim.Microsecond)) // packet 0 is propagating
		p.Delay = lowered
		mustPanicWith(fmt.Sprint("Delay lowered to ", lowered), `ip: port "trunk7": delivery time went backwards`, func() {
			e.RunUntil(sim.Time(20 * sim.Millisecond))
		})
		if len(dst.pkts) != 0 {
			t.Errorf("Delay lowered to %v: %d packets delivered before the panic, want 0", lowered, len(dst.pkts))
		}
	}
	// Raising it keeps the order and is fine: the packets sent after the
	// change ride another band than the one still propagating.
	e := sim.NewEngine()
	dst := &pktCapture{}
	p := NewPort("p", rate, 7*sim.Millisecond, dst)
	for i := 0; i < 3; i++ {
		p.Receive(e, &Packet{Seq: int64(i), Len: 512})
	}
	e.RunUntil(sim.Time(1500 * sim.Microsecond))
	p.Delay = 9 * sim.Millisecond
	e.RunUntil(sim.Time(20 * sim.Millisecond))
	want := []sim.Time{sim.Time(8 * sim.Millisecond), sim.Time(11 * sim.Millisecond), sim.Time(12 * sim.Millisecond)}
	if len(dst.pkts) != 3 {
		t.Fatalf("after raising Delay: delivered %d packets, want 3", len(dst.pkts))
	}
	for i, pkt := range dst.pkts {
		if pkt.Seq != int64(i) || dst.times[i] != want[i] {
			t.Fatalf("after raising Delay: packet %d is seq %d at %v, want seq %d at %v", i, pkt.Seq, dst.times[i], i, want[i])
		}
	}
}

// TestPortsSharingWireBandInterleave: three ports of one Delay file their
// deliveries on one wire band, which is how tcp_timers' 8 000 ports run on
// about 20 bands (DESIGN.md §8). Each keeps its own FIFO, and between them
// packets arrive in (time, seq) order: at equal times the port whose packet
// finished first in seq order — the one fed first — delivers first.
func TestPortsSharingWireBandInterleave(t *testing.T) {
	const rate = 552 * 8 * 1000 // 1 ms per data packet
	e := sim.NewEngine()
	dst := &pktCapture{}
	a := NewPort("a", rate, 7*sim.Millisecond, dst)
	b := NewPort("b", rate, 7*sim.Millisecond, dst)
	c := NewPort("c", rate, 7*sim.Millisecond, dst)
	for i := 0; i < 3; i++ {
		a.Receive(e, &Packet{Seq: int64(i), Len: 512})
		b.Receive(e, &Packet{Seq: int64(10 + i), Len: 512})
	}
	e.RunUntil(sim.Time(500 * sim.Microsecond))
	for i := 0; i < 3; i++ {
		c.Receive(e, &Packet{Seq: int64(20 + i), Len: 512})
	}
	e.RunUntil(sim.Time(20 * sim.Millisecond))
	aw, bw, cw := a.pipe.Wire(), b.pipe.Wire(), c.pipe.Wire()
	if aw != e.Band(7*sim.Millisecond) || aw != bw || aw != cw {
		t.Fatalf("the ports do not share the engine's 7ms band %p: wire %p %p %p", e.Band(7*sim.Millisecond), aw, bw, cw)
	}
	wantSeq := []int64{0, 10, 20, 1, 11, 21, 2, 12, 22}
	wantUS := []sim.Duration{8000, 8000, 8500, 9000, 9000, 9500, 10000, 10000, 10500}
	if len(dst.pkts) != len(wantSeq) {
		t.Fatalf("delivered %d packets, want %d", len(dst.pkts), len(wantSeq))
	}
	for i := range wantSeq {
		if dst.pkts[i].Seq != wantSeq[i] || dst.times[i] != sim.Time(wantUS[i]*sim.Microsecond) {
			t.Fatalf("delivery %d is seq %d at %v, want seq %d at %v", i, dst.pkts[i].Seq, dst.times[i], wantSeq[i], sim.Time(wantUS[i]*sim.Microsecond))
		}
	}
}

func TestPortPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewPort("bad", 0, 0, &pktCapture{})
}

func TestRouterRoutesByDirection(t *testing.T) {
	e := sim.NewEngine()
	fwdDst, revDst := &pktCapture{}, &pktCapture{}
	r := NewRouter("r")
	fp := NewPort("f", 1e9, 0, fwdDst)
	rp := NewPort("r", 1e9, 0, revDst)
	r.Route(1, fp, rp)
	r.Receive(e, &Packet{Flow: 1, Len: 512})
	r.Receive(e, &Packet{Flow: 1, Ack: true})
	e.RunUntil(sim.Time(sim.Millisecond))
	if len(fwdDst.pkts) != 1 || len(revDst.pkts) != 1 {
		t.Fatalf("routing wrong: %d fwd, %d rev", len(fwdDst.pkts), len(revDst.pkts))
	}
}

// TestRouterUnknownFlowPanics covers every way a flow can miss the routing
// tables — beyond their end, inside them but never routed, routed one way
// only, negative — and Route's own refusal of a negative flow.
func TestRouterUnknownFlowPanics(t *testing.T) {
	e := sim.NewEngine()
	r := NewRouter("R1")
	mustPanicWith(t, "empty tables", "ip: router R1 has no route for flow 42 (ack=false)", func() {
		r.Receive(e, &Packet{Flow: 42, Len: 512})
	})
	r.Route(5, NewPort("f", 1e9, 0, &pktCapture{}), nil)
	for _, tc := range []struct {
		name, want string
		pkt        Packet
	}{
		{"beyond the table", "ip: router R1 has no route for flow 42 (ack=false)", Packet{Flow: 42, Len: 512}},
		{"hole in the table", "ip: router R1 has no route for flow 3 (ack=false)", Packet{Flow: 3, Len: 512}},
		{"forward only", "ip: router R1 has no route for flow 5 (ack=true)", Packet{Flow: 5, Ack: true}},
		{"negative, forward", "ip: router R1 has no route for flow -1 (ack=false)", Packet{Flow: -1, Len: 512}},
		{"negative, reverse", "ip: router R1 has no route for flow -1 (ack=true)", Packet{Flow: -1, Ack: true}},
	} {
		mustPanicWith(t, tc.name, tc.want, func() { r.Receive(e, &tc.pkt) })
	}
	mustPanicWith(t, "Route", "ip: router R1: negative flow -7", func() { r.Route(-7, nil, nil) })
}

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

func TestREDDropsBetweenThresholds(t *testing.T) {
	e := sim.NewEngine()
	dst := &pktCapture{}
	p := NewPort("p", 1e6, 0, dst) // slow: queue builds
	red := NewRED(7)
	red.wq = 0.5 // fast averaging so the test converges quickly
	p.Attach(e, red)

	drops := 0
	p.OnDrop = func(sim.Time, *Packet, string) { drops++ }
	for i := 0; i < 200; i++ {
		p.Receive(e, &Packet{Flow: 1, Len: 512})
	}
	if drops == 0 {
		t.Fatal("RED never dropped despite a large backlog")
	}
	// Above MaxTh the average forces drops: the tail of the burst must be
	// mostly dropped, so the admitted queue is far below 200.
	if p.QueueLen() > 100 {
		t.Fatalf("queue = %d, RED failed to bound it", p.QueueLen())
	}
	if red.avg <= 0 {
		t.Fatal("average queue not tracked")
	}
}

func TestREDLeavesShortQueuesAlone(t *testing.T) {
	e := sim.NewEngine()
	dst := &pktCapture{}
	p := NewPort("p", 1e9, 0, dst) // fast: queue never builds
	p.Attach(e, NewRED(7))
	for i := 0; i < 50; i++ {
		p.Receive(e, &Packet{Flow: 1, Len: 512})
		e.RunUntil(e.Now().Add(sim.Millisecond))
	}
	if p.Dropped() != 0 {
		t.Fatalf("RED dropped %d below MinTh", p.Dropped())
	}
}

func TestREDIgnoresAcks(t *testing.T) {
	e := sim.NewEngine()
	p := NewPort("p", 1e6, 0, &pktCapture{})
	red := NewRED(7)
	red.wq = 0.9
	p.Attach(e, red)
	for i := 0; i < 500; i++ {
		p.Receive(e, &Packet{Flow: 1, Ack: true})
	}
	if p.Dropped() != 0 {
		t.Fatal("RED dropped ACKs")
	}
}

func phantomPort(t *testing.T, mode PhantomMode) (*sim.Engine, *Port, *PhantomDiscipline, *pktCapture) {
	t.Helper()
	e := sim.NewEngine()
	dst := &pktCapture{}
	p := NewPort("p", 10e6, 0, dst) // 10 Mb/s
	d := NewPhantomDiscipline(mode, core.Config{UtilizationFactor: 5, InitialMACR: 1e6})
	p.Attach(e, d)
	return e, p, d, dst
}

func TestPhantomSelectiveDiscard(t *testing.T) {
	e, p, _, dst := phantomPort(t, SelectiveDiscard)
	// Allowed rate = 5 MHz·1e6 = 5 Mb/s. CR above → drop; below → admit.
	p.Receive(e, &Packet{Flow: 1, Len: 512, CurrentRate: 6e6})
	p.Receive(e, &Packet{Flow: 2, Len: 512, CurrentRate: 4e6})
	e.RunUntil(sim.Time(10 * sim.Millisecond))
	if p.Dropped() != 1 || len(dst.pkts) != 1 || dst.pkts[0].Flow != 2 {
		t.Fatalf("discard wrong: dropped=%d delivered=%d", p.Dropped(), len(dst.pkts))
	}
}

func TestPhantomSelectiveQuench(t *testing.T) {
	e, p, _, dst := phantomPort(t, SelectiveQuench)
	var quenched []int
	p.OnQuench = func(_ *sim.Engine, flow int) { quenched = append(quenched, flow) }
	p.Receive(e, &Packet{Flow: 1, Len: 512, CurrentRate: 6e6})
	p.Receive(e, &Packet{Flow: 2, Len: 512, CurrentRate: 4e6})
	e.RunUntil(sim.Time(10 * sim.Millisecond))
	// Quench admits the packet (it is not dropped).
	if len(dst.pkts) != 2 || p.Dropped() != 0 {
		t.Fatalf("quench should admit: %d delivered %d dropped", len(dst.pkts), p.Dropped())
	}
	if len(quenched) != 1 || quenched[0] != 1 {
		t.Fatalf("quenched = %v, want [1]", quenched)
	}
}

func TestPhantomECNMark(t *testing.T) {
	e, p, _, dst := phantomPort(t, ECNMark)
	p.Receive(e, &Packet{Flow: 1, Len: 512, CurrentRate: 6e6})
	p.Receive(e, &Packet{Flow: 2, Len: 512, CurrentRate: 4e6})
	e.RunUntil(sim.Time(10 * sim.Millisecond))
	if len(dst.pkts) != 2 {
		t.Fatal("ECN mode must not drop")
	}
	if !dst.pkts[0].ECN || dst.pkts[1].ECN {
		t.Fatalf("marks wrong: %v %v", dst.pkts[0].ECN, dst.pkts[1].ECN)
	}
}

func TestPhantomSelectiveREDOnlyDropsExceeders(t *testing.T) {
	e, p, d, _ := phantomPort(t, SelectiveRED)
	d.red.wq = 0.9 // aggressive averaging: force the lottery on
	compliantDrops, exceederDrops := 0, 0
	p.OnDrop = func(_ sim.Time, pkt *Packet, _ string) {
		if pkt.CurrentRate > 5e6 {
			exceederDrops++
		} else {
			compliantDrops++
		}
	}
	for i := 0; i < 300; i++ {
		p.Receive(e, &Packet{Flow: 1, Len: 512, CurrentRate: 6e6})
		p.Receive(e, &Packet{Flow: 2, Len: 512, CurrentRate: 1e5})
	}
	if compliantDrops != 0 {
		t.Fatalf("Selective RED dropped %d compliant packets", compliantDrops)
	}
	if exceederDrops == 0 {
		t.Fatal("Selective RED never dropped an exceeder under overload")
	}
}

func TestPhantomDisciplineIgnoresAcks(t *testing.T) {
	e, p, _, dst := phantomPort(t, SelectiveDiscard)
	p.Receive(e, &Packet{Flow: 1, Ack: true, CurrentRate: 1e12})
	e.RunUntil(sim.Time(sim.Millisecond))
	if len(dst.pkts) != 1 {
		t.Fatal("ACK was dropped")
	}
}

func TestPhantomDisciplineMACRAdapts(t *testing.T) {
	// Saturate a port and verify MACR collapses (residual → 0), then idle
	// and verify it recovers — the same closed-loop logic as ATM but in
	// bits.
	e, p, d, _ := phantomPort(t, SelectiveDiscard)
	stop := sim.Time(1500 * sim.Millisecond)
	var feed func(en *sim.Engine)
	feed = func(en *sim.Engine) {
		if en.Now() < stop {
			p.Receive(en, &Packet{Flow: 1, Len: 512, CurrentRate: 0})         // CR 0 never exceeds
			en.AfterFunc(441*sim.Microsecond/2, call, sim.Payload{Obj: feed}) // ≈2× line rate
		}
	}
	feed(e)
	e.RunUntil(stop)
	// The loop-gain cap makes the final decay asymptotic; "collapsed"
	// means well below the 1e6 starting point and the ≈1.9e6 equilibrium.
	if d.Control().MACR() > 0.2e6 {
		t.Fatalf("MACR under saturation = %v, want collapsed", d.Control().MACR())
	}
	// The 1.5 s of 2× overload left ≈1.5 s of backlog to drain first.
	e.RunUntil(stop.Add(5000 * sim.Millisecond))
	target := 10e6 * core.DefaultTargetUtilization
	if d.Control().MACR() < target*0.9 {
		t.Fatalf("MACR after idle = %v, want ≈%v", d.Control().MACR(), target)
	}
}

func TestPhantomModeString(t *testing.T) {
	want := map[PhantomMode]string{
		SelectiveDiscard: "SelectiveDiscard",
		SelectiveQuench:  "SelectiveQuench",
		ECNMark:          "ECNMark",
		SelectiveRED:     "SelectiveRED",
		PhantomMode(42):  "?",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
	if got := NewPhantomDiscipline(SelectiveDiscard, core.Config{}).Name(); got != "Phantom-SelectiveDiscard" {
		t.Fatalf("Name = %q", got)
	}
}

// call runs the func(*sim.Engine) in p.Obj: a test's one-off event.
func call(e *sim.Engine, p sim.Payload) { p.Obj.(func(*sim.Engine))(e) }
