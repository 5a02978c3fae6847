// Package interop implements the TCP-over-ATM interconnection the paper's
// abstract promises: "The implementation of this approach in TCP ...
// provides a unifying interconnection between TCP routers and ATM
// networks."
//
// An IngressEdge terminates an IP flow at the boundary of an ATM cloud: it
// segments each datagram into cells (AAL5 style — the last cell carries an
// end-of-packet marker and the cell count standing in for the CRC/length
// check), queues them, and paces transmission on the flow's VC at the ABR
// allowed cell rate, running the full TM 4.0 source loop (forward RM every
// Nrm cells, ACR adjustment on backward RM). The EgressEdge reassembles
// datagrams, discarding any whose cell count fails the check (cell loss ⇒
// packet loss, as in real AAL5), and turns RM cells around.
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

// NewIngressEdge builds an ingress edge for vc.
func NewIngressEdge(vc atm.VCID, params atm.SourceParams, out atm.Sink) *IngressEdge {
	return &IngressEdge{VC: vc, Params: params, Out: out}
}

// DroppedPackets returns datagrams dropped at the edge queue.
func (g *IngressEdge) DroppedPackets() int64 { return g.dropped }

// CellsSent returns the total cells emitted into the cloud.
func (g *IngressEdge) CellsSent() int64 { return g.sent }

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
// one rides its end-of-packet cell to the egress edge.
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

	c := atm.Cell{VC: g.VC, Kind: atm.Data, SentAt: e.Now()}
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
			c.PacketCells = total
			c.Payload = pkt
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

	cellCount int64 // cells of the current partial packet

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
		back.SentAt = e.Now()
		g.Back.Receive(e, back)
	case atm.Data:
		g.cellCount++
		if !c.EndOfPacket {
			return
		}
		count := g.cellCount
		g.cellCount = 0
		pkt, ok := c.Payload.(*ip.Packet)
		if !ok || int(count) != c.PacketCells {
			// A cell of this packet was lost: the AAL5 length check fails
			// and the whole datagram is discarded. (A packet whose
			// end-of-packet cell is the one lost never gets here; the GC
			// takes it instead of the pool.)
			g.tel.corrupted.Inc()
			if ok {
				pkt.Release()
			}
			return
		}
		g.tel.reassembled.Inc()
		g.Dst.Receive(e, pkt)
	}
}
