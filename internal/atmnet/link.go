// Package atmnet is the ATM data plane: links that serialize cells at line
// rate with propagation delay and an output queue, and switches that route
// cells per VC. A switch's output port is a link, and a link can host the
// rate-control algorithm that governs it.
package atmnet

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Link is a unidirectional link with an output FIFO. Cells received while
// the transmitter is busy queue up; the queue is the quantity every figure
// of the paper plots. A Link implements atm.Sink so any component can feed
// it, and switchalg.Port so it can be a switch's output port: Attach gives
// it the algorithm that meters its transmissions.
//
// The FIFO server and the propagation delay line are a sim.Pipe. The link
// adds the loss verdict, its counters and peak, and ends each cell's
// service on the engine's band for one cell time. The FIFO is unbounded:
// ABR switches in the paper are not buffer-limited, and the bounded queues
// of the TCP experiments are ip.Port's. Nothing on the cell path
// allocates in steady state.
//
// Every exported field is one some caller sets: NewLink the first four,
// loss injection LossRate and LossSeed, link transients RateCPS and Delay.
// What no caller varies, such as the queue bound, is not a field.
type Link struct {
	Name string
	// RateCPS is the line rate in cells/s.
	RateCPS float64
	// Delay is the propagation delay.
	Delay sim.Duration
	// Dst receives cells after transmission + propagation.
	Dst atm.Sink

	// LossRate injects random cell loss in [0,1) for failure testing
	// (a noisy line corrupting cells, including RM cells). Deterministic
	// per LossSeed. Zero disables injection.
	LossRate float64
	LossSeed uint64

	lossRNG *workload.RNG
	lost    int64

	// alg is the rate-control algorithm of the port this link is, or nil.
	alg switchalg.Algorithm

	pipe sim.Pipe[atm.Cell]
	// tx is the running engine's band for one cell time at RateCPS, looked
	// up again when a transient (scenario/events.go) has rewritten the field.
	tx *sim.Band
	// scratch is the cell handed to alg.OnTransmit by pointer; a field
	// rather than a local so the interface call does not force a heap
	// allocation per cell.
	scratch atm.Cell
	sent    int64
	// peak is the longest queue seen at an enqueue.
	peak int

	// waitSince shadows the queue + wire with each cell's enqueue time,
	// feeding the latency histogram. Maintained only when the histogram is
	// live (Active), so an uninstrumented run pays one branch per cell and
	// allocates nothing.
	waitSince ring.Ring[sim.Time]

	tel linkTel
}

// linkTel holds the link's pre-resolved telemetry handles. Instrument fills
// them; with no registry they stay inert zero handles, so the hot path bumps
// them unconditionally.
type linkTel struct {
	sent       telemetry.Counter
	lost       telemetry.Counter
	queuePeak  telemetry.Gauge
	queueDepth telemetry.Histogram
	cellWait   telemetry.Histogram
}

// Instrument registers the link's counters, and those of the algorithm
// Attach gave it, with reg (class-level names, so every link in a scenario
// shares the accumulators). A nil reg yields inert handles. Two
// distributions ride along with the counters: queue depth sampled at each
// enqueue, and per-cell latency from enqueue to the end of transmission
// (queueing + serialization, in simulated nanoseconds).
func (l *Link) Instrument(reg *telemetry.Registry) {
	if l.alg != nil {
		l.alg.Instrument(reg)
	}
	sent := reg.Counter("link.cells_sent")
	// link.cells_dropped always reads 0 (the FIFO has no bound), but every
	// stored ATM run's telemetry holds it, in this place among the link's
	// names, so it stays registered until the stored format drops it.
	reg.Counter("link.cells_dropped")
	l.tel = linkTel{
		sent:       sent,
		lost:       reg.Counter("link.cells_lost"),
		queuePeak:  reg.Gauge("link.queue_cells_peak"),
		queueDepth: reg.Histogram("link.queue_depth_cells"),
		cellWait:   reg.Histogram("link.cell_latency_ns"),
	}
}

// NewLink builds a link with the given line rate (cells/s), propagation
// delay and destination.
func NewLink(name string, rateCPS float64, delay sim.Duration, dst atm.Sink) *Link {
	if rateCPS <= 0 {
		panic(fmt.Sprintf("atmnet: link %q with non-positive rate", name))
	}
	return &Link{Name: name, RateCPS: rateCPS, Delay: delay, Dst: dst}
}

// Attach makes alg, if not nil, the rate-control algorithm of the switch
// port this link is: alg binds to the link and then sees every cell the
// link finishes transmitting. Call it once, before Instrument and before
// any traffic.
func (l *Link) Attach(e *sim.Engine, alg switchalg.Algorithm) {
	if alg != nil {
		l.alg = alg
		alg.Attach(e, l)
	}
}

// Algorithm returns the link's rate-control algorithm, or nil.
func (l *Link) Algorithm() switchalg.Algorithm { return l.alg }

// QueueLen implements switchalg.Port: the number of cells waiting
// (excluding the one on the wire).
func (l *Link) QueueLen() int { return l.pipe.QueueLen() }

// Capacity implements switchalg.Port: the live line rate in cells/s.
func (l *Link) Capacity() float64 { return l.RateCPS }

// PeakQueue returns the longest queue the link has held, in cells.
func (l *Link) PeakQueue() int { return l.peak }

// QueueCap returns the current capacity of the FIFO's backing array. It
// grows to the peak backlog and then stabilizes; tests use it to pin the
// no-unbounded-growth property.
func (l *Link) QueueCap() int { return l.pipe.QueueCap() }

// Sent returns the number of cells fully transmitted.
func (l *Link) Sent() int64 { return l.sent }

// Lost returns the number of cells destroyed by injected loss.
func (l *Link) Lost() int64 { return l.lost }

// Receive implements atm.Sink: enqueue and start the transmitter.
func (l *Link) Receive(e *sim.Engine, c atm.Cell) {
	if l.LossRate > 0 {
		if l.lossRNG == nil {
			l.lossRNG = workload.NewRNG(l.LossSeed)
		}
		if l.lossRNG.Float64() < l.LossRate {
			l.lost++
			l.tel.lost.Inc()
			return
		}
	}
	l.pipe.Push(c)
	q := l.QueueLen()
	if q > l.peak {
		l.peak = q
	}
	l.tel.queuePeak.Observe(uint64(q))
	l.tel.queueDepth.Observe(uint64(q))
	if l.tel.cellWait.Active() {
		l.waitSince.Push(e.Now())
	}
	l.startTx(e)
}

// startTx begins transmitting the head cell if the line is idle.
func (l *Link) startTx(e *sim.Engine) {
	if l.pipe.Start() == nil {
		return
	}
	if d := sim.DurationOf(1, l.RateCPS); l.tx == nil || l.tx.Delay() != d {
		l.tx = e.Band(d)
	}
	l.tx.After(linkTxDone, l)
}

// linkTxDone fires when the head cell finishes serialization: meter it
// into the port's algorithm, hand it to the propagation pipe and restart
// the transmitter.
func linkTxDone(e *sim.Engine, p sim.Payload) {
	l := p.Obj.(*Link)
	c := l.pipe.Finish()
	l.sent++
	l.tel.sent.Inc()
	if l.tel.cellWait.Active() {
		l.tel.cellWait.Observe(uint64(e.Now().Sub(l.waitSince.Pop())))
	}
	if l.alg != nil {
		l.scratch = c
		l.alg.OnTransmit(e.Now(), &l.scratch)
	}
	if !l.pipe.Depart(e, c, l.Delay, l.Dst) {
		panic(fmt.Sprintf("atmnet: link %q: delivery time went backwards", l.Name))
	}
	l.startTx(e)
}
