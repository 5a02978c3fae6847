package ip

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Action is a discipline's verdict on an arriving packet.
type Action struct {
	// Drop discards the packet instead of enqueueing it.
	Drop bool
	// Quench asks the port to signal an ICMP Source Quench back to the
	// packet's source (the port's OnQuench hook delivers it).
	Quench bool
}

// Discipline decides the fate of packets arriving at a port: the queue
// management policy. Implementations may also modify the packet (ECN
// marking).
type Discipline interface {
	Name() string
	// Attach binds the discipline to its port before any traffic flows.
	Attach(e *sim.Engine, port *Port)
	// Admit is consulted for every arriving packet.
	Admit(now sim.Time, p *Packet) Action
	// OnTransmit observes every packet the port finishes sending.
	OnTransmit(now sim.Time, p *Packet)
}

// Port is a router output port: a rate-limited FIFO (a sim.Pipe) with a
// queue discipline. The physical buffer bound MaxQueue (in packets) applies
// after the discipline admits; 0 means unbounded.
type Port struct {
	Name     string
	RateBPS  float64
	Delay    sim.Duration
	MaxQueue int
	Dst      Sink
	Disc     Discipline

	// OnQuench delivers a source-quench signal for flow back to its
	// source; the scenario wires it with the reverse-path delay.
	OnQuench func(e *sim.Engine, flow int)
	// OnDrop observes every dropped packet with the reason. The packet is
	// released when it returns, so OnDrop must not keep it.
	OnDrop func(now sim.Time, p *Packet, reason string)

	// LossRate injects random packet loss in [0,1) for failure testing,
	// deterministic per LossSeed. Zero disables injection.
	LossRate float64
	LossSeed uint64

	lossRNG *workload.RNG

	// pipe is the FIFO server and the propagation delay line. A packet's
	// tx-done is an AfterFunc, not a band event: its duration is the
	// packet's own.
	pipe    sim.Pipe[*Packet]
	dropped int64
	sentBy  int64
	// peak is the longest queue seen at an enqueue.
	peak int

	tel portTel
}

// portTel holds the port's pre-resolved telemetry handles (inert without a
// registry). Drops split by cause: injected loss, the physical tail bound,
// or the queue discipline's verdict (RED/ECN/quench policies).
type portTel struct {
	pktsSent   telemetry.Counter
	bytesSent  telemetry.Counter
	dropTail   telemetry.Counter
	dropDisc   telemetry.Counter
	dropLoss   telemetry.Counter
	queuePeak  telemetry.Gauge
	queueDepth telemetry.Histogram
}

// Instrument registers the port's counters with reg. The queue-depth
// histogram samples the backlog at each admit, giving the distribution
// behind the _peak gauge.
func (p *Port) Instrument(reg *telemetry.Registry) {
	p.tel = portTel{
		pktsSent:   reg.Counter("ip.pkts_sent"),
		bytesSent:  reg.Counter("ip.bytes_sent"),
		dropTail:   reg.Counter("ip.drops_tail"),
		dropDisc:   reg.Counter("ip.drops_disc"),
		dropLoss:   reg.Counter("ip.drops_loss"),
		queuePeak:  reg.Gauge("ip.queue_pkts_peak"),
		queueDepth: reg.Histogram("ip.queue_depth_pkts"),
	}
}

// NewPort builds a port; disc may be nil for a pure FIFO.
func NewPort(name string, rateBPS float64, delay sim.Duration, dst Sink) *Port {
	if rateBPS <= 0 {
		panic(fmt.Sprintf("ip: port %q with non-positive rate", name))
	}
	return &Port{Name: name, RateBPS: rateBPS, Delay: delay, Dst: dst}
}

// Attach binds the discipline and must be called once before traffic if a
// discipline is used.
func (p *Port) Attach(e *sim.Engine, d Discipline) {
	p.Disc = d
	if d != nil {
		d.Attach(e, p)
	}
}

// QueueLen returns the backlog in packets.
func (p *Port) QueueLen() int { return p.pipe.QueueLen() }

// QueueCap returns the current capacity of the FIFO's backing array; it
// grows to the peak backlog and then stabilizes.
func (p *Port) QueueCap() int { return p.pipe.QueueCap() }

// Dropped returns the count of packets dropped for any reason: injected
// loss, the discipline's verdict and the tail bound.
func (p *Port) Dropped() int64 { return p.dropped }

// PeakQueue returns the longest queue the port has held, in packets.
func (p *Port) PeakQueue() int { return p.peak }

// SentBytes returns the bytes fully transmitted.
func (p *Port) SentBytes() int64 { return p.sentBy }

// Receive implements Sink.
func (p *Port) Receive(e *sim.Engine, pkt *Packet) {
	if p.LossRate > 0 {
		if p.lossRNG == nil {
			p.lossRNG = workload.NewRNG(p.LossSeed)
		}
		if p.lossRNG.Float64() < p.LossRate {
			p.tel.dropLoss.Inc()
			p.drop(e, pkt, "loss")
			return
		}
	}
	if p.Disc != nil {
		act := p.Disc.Admit(e.Now(), pkt)
		if act.Quench && p.OnQuench != nil {
			p.OnQuench(e, pkt.Flow)
		}
		if act.Drop {
			p.tel.dropDisc.Inc()
			p.drop(e, pkt, p.Disc.Name())
			return
		}
	}
	if p.MaxQueue > 0 && p.QueueLen() >= p.MaxQueue {
		p.tel.dropTail.Inc()
		p.drop(e, pkt, "tail")
		return
	}
	p.pipe.Push(pkt)
	q := p.QueueLen()
	if q > p.peak {
		p.peak = q
	}
	p.tel.queuePeak.Observe(uint64(q))
	p.tel.queueDepth.Observe(uint64(q))
	p.startTx(e)
}

// drop counts and reports a packet the port will not carry, then releases
// it: the port owns what it was handed, and this is where a dropped packet
// ends.
func (p *Port) drop(e *sim.Engine, pkt *Packet, reason string) {
	p.dropped++
	if p.OnDrop != nil {
		p.OnDrop(e.Now(), pkt, reason)
	}
	pkt.Release()
}

func (p *Port) startTx(e *sim.Engine) {
	if next := p.pipe.Start(); next != nil {
		e.AfterFunc(sim.DurationOf((*next).SizeBits(), p.RateBPS), portTxDone, sim.Payload{Obj: p})
	}
}

// portTxDone fires when the head packet finishes serialization: account it,
// hand it to the propagation pipe and restart the transmitter.
func portTxDone(e *sim.Engine, pl sim.Payload) {
	p := pl.Obj.(*Port)
	pkt := p.pipe.Finish()
	p.sentBy += int64(pkt.SizeBytes())
	p.tel.pktsSent.Inc()
	p.tel.bytesSent.Add(uint64(pkt.SizeBytes()))
	if p.Disc != nil {
		p.Disc.OnTransmit(e.Now(), pkt)
	}
	if !p.pipe.Depart(e, pkt, p.Delay, p.Dst) {
		panic(fmt.Sprintf("ip: port %q: delivery time went backwards", p.Name))
	}
	p.startTx(e)
}

// Router forwards packets by flow and direction: data packets use the
// forward table, pure ACKs the reverse table. This mirrors the ATM switch
// but for datagrams.
//
// The tables are dense slices indexed by flow and grown by Route, as the ATM
// switch's are by VC: flows are small non-negative integers and the lookup
// is on every packet's path.
type Router struct {
	Name string
	fwd  []*Port
	rev  []*Port
}

// NewRouter returns an empty router.
func NewRouter(name string) *Router {
	return &Router{Name: name}
}

// Route installs the per-flow ports; either may be nil to leave the
// existing entry. A negative flow panics.
func (r *Router) Route(flow int, fwd, rev *Port) {
	if flow < 0 {
		panic(fmt.Sprintf("ip: router %s: negative flow %d", r.Name, flow))
	}
	if fwd != nil {
		r.fwd = setRoute(r.fwd, flow, fwd)
	}
	if rev != nil {
		r.rev = setRoute(r.rev, flow, rev)
	}
}

// setRoute stores p at tab[flow], growing the table to reach.
func setRoute(tab []*Port, flow int, p *Port) []*Port {
	if n := flow + 1; n > len(tab) {
		tab = append(tab, make([]*Port, n-len(tab))...)
	}
	tab[flow] = p
	return tab
}

// Receive implements Sink.
func (r *Router) Receive(e *sim.Engine, p *Packet) {
	tab := r.fwd
	if p.Ack {
		tab = r.rev
	}
	// A flow the table does not reach (negative ones included) has no route.
	var port *Port
	if uint(p.Flow) < uint(len(tab)) {
		port = tab[p.Flow]
	}
	if port == nil {
		panic(fmt.Sprintf("ip: router %s has no route for flow %d (ack=%v)", r.Name, p.Flow, p.Ack))
	}
	port.Receive(e, p)
}
