package interop

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/ip"
	"repro/internal/sim"
)

type cellCapture struct {
	cells []atm.Cell
}

func (cc *cellCapture) Receive(e *sim.Engine, c atm.Cell) { cc.cells = append(cc.cells, c) }

type pktCapture struct {
	pkts []*ip.Packet
}

func (pc *pktCapture) Receive(e *sim.Engine, p *ip.Packet) { pc.pkts = append(pc.pkts, p) }

func TestCellsFor(t *testing.T) {
	// 512 B payload + 40 header + 8 trailer = 560 B → 12 cells.
	if got := cellsFor(&ip.Packet{Len: 512}); got != 12 {
		t.Fatalf("cellsFor(512B data) = %d, want 12", got)
	}
	// Pure ACK: 40 + 8 = 48 → exactly 1 cell.
	if got := cellsFor(&ip.Packet{Ack: true}); got != 1 {
		t.Fatalf("cellsFor(ack) = %d, want 1", got)
	}
}

func TestIngressSegmentsAndPaces(t *testing.T) {
	e := sim.NewEngine()
	out := &cellCapture{}
	g := NewIngressEdge(1, atm.DefaultSourceParams(), out)
	if err := g.Start(e); err != nil {
		t.Fatal(err)
	}
	pkt := &ip.Packet{Flow: 1, Len: 512}
	g.Receive(e, pkt)
	e.RunUntil(sim.Time(5 * sim.Millisecond))
	// 12 data cells; the 12th carries the payload and EOP.
	var dataCells []atm.Cell
	for _, c := range out.cells {
		if c.Kind == atm.Data {
			dataCells = append(dataCells, c)
		}
	}
	if len(dataCells) != 12 {
		t.Fatalf("data cells = %d, want 12", len(dataCells))
	}
	last := dataCells[11]
	if !last.EndOfPacket || last.PacketCells != 12 || last.Payload != pkt {
		t.Fatalf("EOP cell wrong: %+v", last)
	}
	for _, c := range dataCells[:11] {
		if c.EndOfPacket || c.Payload != nil {
			t.Fatal("non-final cell carries EOP/payload")
		}
	}
	// Pacing at ICR: 12 cells ≈ 12/20047 s ≈ 0.6 ms — spread, not a burst.
	if len(out.cells) >= 2 {
		gap := out.cells[1].SentAt.Sub(out.cells[0].SentAt)
		want := sim.DurationOf(1, g.Params.ICR)
		if gap < want-sim.Microsecond || gap > want+sim.Microsecond {
			t.Fatalf("cell gap = %v, want ≈%v", gap, want)
		}
	}
}

func TestIngressEmitsForwardRM(t *testing.T) {
	e := sim.NewEngine()
	out := &cellCapture{}
	g := NewIngressEdge(1, atm.DefaultSourceParams(), out)
	if err := g.Start(e); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		g.Receive(e, &ip.Packet{Flow: 1, Len: 512, Seq: int64(i * 512)})
	}
	e.RunUntil(sim.Time(50 * sim.Millisecond))
	rm := 0
	for _, c := range out.cells {
		if c.Kind == atm.ForwardRM {
			rm++
			if c.CCR <= 0 || c.ER != g.Params.PCR {
				t.Fatalf("RM cell fields wrong: %+v", c)
			}
		}
	}
	// 10 packets × 12 cells = 120 data cells → at least 3 RM cells
	// (every 32nd slot).
	if rm < 3 {
		t.Fatalf("forward RM cells = %d, want ≥3", rm)
	}
}

func TestIngressAdjustsACROnBackwardRM(t *testing.T) {
	e := sim.NewEngine()
	g := NewIngressEdge(1, atm.DefaultSourceParams(), &cellCapture{})
	if err := g.Start(e); err != nil {
		t.Fatal(err)
	}
	before := g.acr
	g.ReceiveCell(e, atm.Cell{VC: 1, Kind: atm.BackwardRM, ER: g.Params.PCR})
	if g.acr != before+g.Params.AIRNrm {
		t.Fatalf("ACR = %v, want additive increase", g.acr)
	}
	g.ReceiveCell(e, atm.Cell{VC: 1, Kind: atm.BackwardRM, ER: 5000})
	if g.acr != 5000 {
		t.Fatalf("ACR = %v, want ER clamp", g.acr)
	}
	// Foreign cells ignored.
	g.ReceiveCell(e, atm.Cell{VC: 9, Kind: atm.BackwardRM, ER: 1})
	if g.acr != 5000 {
		t.Fatal("foreign VC adjusted ACR")
	}
}

func TestIngressQueueBound(t *testing.T) {
	e := sim.NewEngine()
	g := NewIngressEdge(1, atm.DefaultSourceParams(), &cellCapture{})
	g.MaxQueueBytes = 2000 // fits 3 × 552
	if err := g.Start(e); err != nil {
		t.Fatal(err)
	}
	var drops int
	g.OnDrop = func(_ sim.Time, p *ip.Packet) {
		if p.Flow != 1 {
			t.Errorf("OnDrop saw %+v", p)
		}
		drops++
	}
	pkts := make([]*ip.Packet, 10)
	for i := range pkts {
		pkts[i] = &ip.Packet{Flow: 1, Len: 512}
		g.Receive(e, pkts[i])
	}
	if g.DroppedPackets() != 7 || drops != 7 {
		t.Fatalf("dropped = %d/%d, want 7", g.DroppedPackets(), drops)
	}
	// The queued three ride their cells; the dropped seven were released.
	for i, p := range pkts {
		if released := p.Flow == -1; released != (i >= 3) {
			t.Errorf("packet %d: released = %v", i, released)
		}
	}
}

func TestEgressReassembles(t *testing.T) {
	e := sim.NewEngine()
	back := &cellCapture{}
	dst := &pktCapture{}
	g := NewEgressEdge(1, back, dst)
	pkt := &ip.Packet{Flow: 1, Len: 512}
	for i := 0; i < 11; i++ {
		g.Receive(e, atm.Cell{VC: 1, Kind: atm.Data})
	}
	g.Receive(e, atm.Cell{VC: 1, Kind: atm.Data, EndOfPacket: true, PacketCells: 12, Payload: pkt})
	if len(dst.pkts) != 1 || dst.pkts[0] != pkt {
		t.Fatalf("reassembly failed: %v", dst.pkts)
	}
}

func TestEgressDiscardsOnCellLoss(t *testing.T) {
	e := sim.NewEngine()
	dst := &pktCapture{}
	g := NewEgressEdge(1, &cellCapture{}, dst)
	pkt := &ip.Packet{Flow: 1, Len: 512}
	// Only 10 of 12 cells arrive before the EOP cell.
	for i := 0; i < 9; i++ {
		g.Receive(e, atm.Cell{VC: 1, Kind: atm.Data})
	}
	g.Receive(e, atm.Cell{VC: 1, Kind: atm.Data, EndOfPacket: true, PacketCells: 12, Payload: pkt})
	if len(dst.pkts) != 0 {
		t.Fatal("corrupted packet delivered")
	}
	if pkt.Flow != -1 {
		t.Fatalf("discarded packet not released: %+v", pkt)
	}
	// The next intact packet still reassembles (counter reset).
	next := &ip.Packet{Flow: 1, Len: 512}
	for i := 0; i < 11; i++ {
		g.Receive(e, atm.Cell{VC: 1, Kind: atm.Data})
	}
	g.Receive(e, atm.Cell{VC: 1, Kind: atm.Data, EndOfPacket: true, PacketCells: 12, Payload: next})
	if len(dst.pkts) != 1 || dst.pkts[0] != next || next.Flow != 1 {
		t.Fatal("recovery after corruption failed")
	}
}

func TestEgressTurnsRMAround(t *testing.T) {
	e := sim.NewEngine()
	back := &cellCapture{}
	g := NewEgressEdge(1, back, &pktCapture{})
	g.Receive(e, atm.Cell{VC: 1, Kind: atm.ForwardRM, CCR: 123, ER: 456})
	if len(back.cells) != 1 {
		t.Fatal("no turnaround")
	}
	b := back.cells[0]
	if b.Kind != atm.BackwardRM || b.CCR != 123 || b.ER != 456 {
		t.Fatalf("turnaround wrong: %+v", b)
	}
}

func TestEgressIgnoresForeignVC(t *testing.T) {
	e := sim.NewEngine()
	dst := &pktCapture{}
	g := NewEgressEdge(1, &cellCapture{}, dst)
	g.Receive(e, atm.Cell{VC: 2, Kind: atm.Data, EndOfPacket: true, PacketCells: 1, Payload: &ip.Packet{}})
	if len(dst.pkts) != 0 {
		t.Fatal("foreign VC delivered")
	}
}
