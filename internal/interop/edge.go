// Package interop implements the TCP-over-ATM interconnection the paper's
// abstract promises: "The implementation of this approach in TCP ...
// provides a unifying interconnection between TCP routers and ATM
// networks."
//
// An IngressEdge terminates an IP flow at the boundary of an ATM cloud: it
// segments each datagram into cells (AAL5 style — the last cell carries an
// end-of-packet marker), queues them, and paces transmission on the flow's
// VC at the ABR allowed cell rate, running the full TM 4.0 source loop
// (forward RM every Nrm cells, ACR adjustment on backward RM). The
// EgressEdge reassembles datagrams, discarding any whose cell count fails
// the check that stands in for the AAL5 CRC/length check (cell loss ⇒
// packet loss, as in real AAL5), and turns RM cells around.
//
// Cells carry no pointer, so the datagram itself does not ride the cloud:
// the edge pair of a VC shares a FIFO of the datagrams in flight, and the
// end-of-packet cell carries only the datagram's handle, its sequence
// number on the VC. A datagram whose end-of-packet cell is lost is
// released when the next end-of-packet cell on the VC arrives.
//
// The payoff demonstrated by experiment E20: the ATM cloud's Phantom
// switches allocate per-VC fair rates, so TCP flows crossing the cloud get
// RTT-independent fair shares — the consistency argument of §4.2.
package interop

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/ip"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// CellPayloadBytes is the usable payload per cell (AAL5 over the 48-byte
// cell body).
const CellPayloadBytes = 48

// cellsFor returns the number of cells a datagram occupies, including the
// 8-byte AAL5 trailer in the last cell.
func cellsFor(p *ip.Packet) int {
	n := (p.SizeBytes() + 8 + CellPayloadBytes - 1) / CellPayloadBytes
	if n < 1 {
		n = 1
	}
	return n
}

// datagrams is the FIFO of datagrams an ingress/egress edge pair shares on
// one VC. The ingress pushes each datagram as it sends its end-of-packet
// cell, which carries the handle push returns. The cloud never reorders a
// VC's cells, so the egress meets handles in push order.
type datagrams struct {
	q    ring.Ring[*ip.Packet]
	head uint32 // the handle of q's head entry
}

// push appends p and returns its handle.
func (d *datagrams) push(p *ip.Packet) uint32 {
	d.q.Push(p)
	return d.head + uint32(d.q.Len()-1)
}

// take removes and returns the datagram with handle h. Every older entry
// lost its end-of-packet cell in the cloud: take releases it.
func (d *datagrams) take(h uint32) *ip.Packet {
	if h-d.head >= uint32(d.q.Len()) {
		panic(fmt.Sprintf("interop: end-of-packet handle %d not held (head %d, %d held)", h, d.head, d.q.Len()))
	}
	for ; d.head != h; d.head++ {
		d.q.Pop().Release()
	}
	d.head++
	return d.q.Pop()
}

// IngressEdge adapts an IP flow onto an ABR VC. It implements ip.Sink for
// datagrams entering the cloud and atm.Sink for the VC's backward RM cells.
type IngressEdge struct {
	VC     atm.VCID
	Params atm.SourceParams
	// Out is the ATM access link into the cloud.
	Out atm.Sink
	// MaxQueueBytes bounds the segmentation queue; beyond it arriving
	// datagrams are dropped (the edge is where TCP experiences the ATM
	// cloud's congestion). 0 means 128 KiB.
	MaxQueueBytes int
	// OnRateChange observes ACR changes (cells/s) for figures.
	OnRateChange func(now sim.Time, acr float64)
	// OnDrop observes datagrams dropped at the edge queue. The packet is
	// released when it returns, so OnDrop must not keep it.
	OnDrop func(now sim.Time, p *ip.Packet)

	acr        float64
	queue      ring.Ring[*ip.Packet]
	inFlight   *datagrams // shared with the egress edge
	queueBytes int
	// segmentation state for the packet currently on the wire.
	curCells int // cells of the head packet already sent
	sinceRM  int
	pending  bool
	started  bool
	dropped  int64
	sent     int64

	tel ingressTel
}

// ingressTel holds the ingress edge's pre-resolved telemetry handles (inert
// without a registry).
type ingressTel struct {
	cellsSent   telemetry.Counter
	pktsDropped telemetry.Counter
	rateChanges telemetry.Counter
}

// Instrument registers the ingress edge's counters with reg.
func (g *IngressEdge) Instrument(reg *telemetry.Registry) {
	g.tel = ingressTel{
		cellsSent:   reg.Counter("edge.cells_sent"),
		pktsDropped: reg.Counter("edge.pkts_dropped"),
		rateChanges: reg.Counter("edge.rate_changes"),
	}
}

// NewIngressEdge builds an ingress edge for vc whose datagrams the egress
// edge to reassembles.
func NewIngressEdge(vc atm.VCID, params atm.SourceParams, out atm.Sink, to *EgressEdge) *IngressEdge {
	return &IngressEdge{VC: vc, Params: params, Out: out, inFlight: &to.inFlight}
}

// DroppedPackets returns datagrams dropped at the edge queue.
func (g *IngressEdge) DroppedPackets() int64 { return g.dropped }

// CellsSent returns the total cells emitted into the cloud.
func (g *IngressEdge) CellsSent() int64 { return g.sent }

// Held returns the datagrams whose end-of-packet cell has left the edge and
// that the egress edge has not yet taken: those still in the cloud, and
// those whose end-of-packet cell was lost after the last one to arrive.
func (g *IngressEdge) Held() int { return g.inFlight.q.Len() }

// Start validates parameters and initializes the ABR loop.
func (g *IngressEdge) Start(e *sim.Engine) error {
	if err := g.Params.Validate(); err != nil {
		return err
	}
	if g.MaxQueueBytes == 0 {
		g.MaxQueueBytes = 128 * 1024
	}
	g.acr = g.Params.ICR
	g.started = true
	return nil
}

// Receive implements ip.Sink: queue the datagram and arm the cell pacer. A
// datagram the queue bound turns away ends here and is released; a queued
// one passes to the edge pair's FIFO with its end-of-packet cell.
func (g *IngressEdge) Receive(e *sim.Engine, p *ip.Packet) {
	if !g.started {
		panic(fmt.Sprintf("interop: ingress edge VC %d received before Start", g.VC))
	}
	if g.queueBytes+p.SizeBytes() > g.MaxQueueBytes {
		g.dropped++
		g.tel.pktsDropped.Inc()
		if g.OnDrop != nil {
			g.OnDrop(e.Now(), p)
		}
		p.Release()
		return
	}
	g.queue.Push(p)
	g.queueBytes += p.SizeBytes()
	g.armSend(e)
}

// ReceiveCell implements atm.Sink (via the adapter below) for backward RM
// cells returning on the VC.
func (g *IngressEdge) ReceiveCell(e *sim.Engine, c atm.Cell) {
	if c.Kind != atm.BackwardRM || c.VC != g.VC || !g.started {
		return
	}
	acr := g.Params.AdjustACR(g.acr, c.CI, c.ER)
	if acr != g.acr {
		g.acr = acr
		g.tel.rateChanges.Inc()
		if g.OnRateChange != nil {
			g.OnRateChange(e.Now(), acr)
		}
	}
}

// BackwardSink returns the edge's atm.Sink face for the reverse access
// link.
func (g *IngressEdge) BackwardSink() atm.Sink {
	return atm.SinkFunc(func(e *sim.Engine, c atm.Cell) { g.ReceiveCell(e, c) })
}

// armSend schedules the next cell if the pacer is idle and data waits. A
// typed callback so the per-cell re-arm allocates nothing.
func (g *IngressEdge) armSend(e *sim.Engine) {
	if g.pending || g.queue.Len() == 0 {
		return
	}
	g.pending = true
	e.AfterFunc(sim.DurationOf(1, g.acr), edgeSendCell, sim.Payload{Obj: g})
}

func edgeSendCell(e *sim.Engine, p sim.Payload) {
	p.Obj.(*IngressEdge).sendCell(e)
}

// sendCell emits the next cell of the head datagram.
func (g *IngressEdge) sendCell(e *sim.Engine) {
	g.pending = false
	if g.queue.Len() == 0 {
		return
	}
	pkt := *g.queue.Peek()
	total := cellsFor(pkt)

	c := atm.Cell{VC: g.VC, Kind: atm.Data}
	if g.sinceRM >= g.Params.Nrm-1 {
		// In-rate forward RM cell; the datagram cell follows next slot.
		c.Kind = atm.ForwardRM
		c.CCR = g.acr
		c.ER = g.Params.PCR
		g.sinceRM = 0
	} else {
		g.sinceRM++
		g.curCells++
		if g.curCells == total {
			c.EndOfPacket = true
			c.Handle = g.inFlight.push(pkt)
			// Advance to the next datagram.
			g.queue.Pop()
			g.queueBytes -= pkt.SizeBytes()
			g.curCells = 0
		}
	}
	g.sent++
	g.tel.cellsSent.Inc()
	g.Out.Receive(e, c)
	g.armSend(e)
}

// EgressEdge reassembles datagrams from a VC's cells and delivers them to
// an IP sink; it turns forward RM cells around like a destination end
// system.
type EgressEdge struct {
	VC atm.VCID
	// Back carries backward RM cells toward the ingress edge.
	Back atm.Sink
	// Dst receives reassembled datagrams.
	Dst ip.Sink

	inFlight  datagrams // shared with the ingress edge
	cellCount int64     // cells of the current partial packet

	tel egressTel
}

// egressTel holds the egress edge's pre-resolved telemetry handles (inert
// without a registry).
type egressTel struct {
	reassembled telemetry.Counter
	corrupted   telemetry.Counter
	turnarounds telemetry.Counter
}

// Instrument registers the egress edge's counters with reg.
func (g *EgressEdge) Instrument(reg *telemetry.Registry) {
	g.tel = egressTel{
		reassembled: reg.Counter("edge.pkts_reassembled"),
		corrupted:   reg.Counter("edge.pkts_corrupted"),
		turnarounds: reg.Counter("edge.rm_turnarounds"),
	}
}

// NewEgressEdge builds the egress for vc.
func NewEgressEdge(vc atm.VCID, back atm.Sink, dst ip.Sink) *EgressEdge {
	return &EgressEdge{VC: vc, Back: back, Dst: dst}
}

// Receive implements atm.Sink.
func (g *EgressEdge) Receive(e *sim.Engine, c atm.Cell) {
	if c.VC != g.VC {
		return
	}
	switch c.Kind {
	case atm.ForwardRM:
		g.tel.turnarounds.Inc()
		back := c
		back.Kind = atm.BackwardRM
		g.Back.Receive(e, back)
	case atm.Data:
		g.cellCount++
		if !c.EndOfPacket {
			return
		}
		count := g.cellCount
		g.cellCount = 0
		pkt := g.inFlight.take(c.Handle)
		if int(count) != cellsFor(pkt) {
			// A cell of this packet was lost: the AAL5 length check fails
			// and the whole datagram is discarded. (A packet whose
			// end-of-packet cell is the one lost never gets here; take
			// released it.)
			g.tel.corrupted.Inc()
			pkt.Release()
			return
		}
		g.tel.reassembled.Inc()
		g.Dst.Receive(e, pkt)
	}
}
