// Package atmnet wires the ATM data plane into networks: links that
// serialize cells at line rate with propagation delay and an output queue,
// and switches that route cells per VC and host a rate-control algorithm on
// each output port.
package atmnet

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Link is a unidirectional link with an output FIFO. Cells received while
// the transmitter is busy queue up; the queue is the quantity every figure
// of the paper plots. A Link implements atm.Sink so any component can feed
// it.
//
// The FIFO server and the propagation delay line are a sim.Pipe. The link
// adds the loss and MaxQueue verdicts, its counters and observers, and ends
// each cell's service on the engine's band for one cell time. Nothing on
// the cell path allocates in steady state.
type Link struct {
	Name string
	// RateCPS is the line rate in cells/s.
	RateCPS float64
	// Delay is the propagation delay.
	Delay sim.Duration
	// MaxQueue bounds the FIFO in cells; 0 means unbounded (ABR switches in
	// the paper are not buffer-limited; the TCP experiments set a bound).
	MaxQueue int
	// Dst receives cells after transmission + propagation.
	Dst atm.Sink

	// OnTransmit fires when a cell finishes transmission (the metering
	// point for Phantom). The cell may not be modified and the pointer is
	// valid only for the duration of the call.
	OnTransmit func(now sim.Time, c *atm.Cell)
	// OnQueue fires when the queue length changes.
	OnQueue func(now sim.Time, qlen int)
	// OnDrop fires when MaxQueue forces a drop.
	OnDrop func(now sim.Time, c atm.Cell)

	// LossRate injects random cell loss in [0,1) for failure testing
	// (a noisy line corrupting cells, including RM cells). Deterministic
	// per LossSeed. Zero disables injection.
	LossRate float64
	LossSeed uint64

	lossRNG *workload.RNG
	lost    int64

	pipe sim.Pipe[atm.Cell]
	// tx is the running engine's band for one cell time at RateCPS, looked
	// up again when a transient (scenario/events.go) has rewritten the field.
	tx *sim.Band
	// scratch is the cell handed to OnTransmit by pointer; a field rather
	// than a local so the observer call does not force a heap allocation
	// per cell.
	scratch atm.Cell
	dropped int64
	sent    int64

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
	dropped    telemetry.Counter
	lost       telemetry.Counter
	queuePeak  telemetry.Gauge
	queueDepth telemetry.Histogram
	cellWait   telemetry.Histogram
}

// Instrument registers the link's counters with reg (class-level names, so
// every link in a scenario shares the accumulators). A nil reg yields inert
// handles. Two distributions ride along with the counters: queue depth
// sampled at each enqueue, and per-cell latency from enqueue to the end of
// transmission (queueing + serialization, in simulated nanoseconds).
func (l *Link) Instrument(reg *telemetry.Registry) {
	l.tel = linkTel{
		sent:       reg.Counter("link.cells_sent"),
		dropped:    reg.Counter("link.cells_dropped"),
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

// QueueLen returns the number of cells waiting (excluding the one on the
// wire).
func (l *Link) QueueLen() int { return l.pipe.QueueLen() }

// QueueCap returns the current capacity of the FIFO's backing array. It
// grows to the peak backlog and then stabilizes; tests use it to pin the
// no-unbounded-growth property.
func (l *Link) QueueCap() int { return l.pipe.QueueCap() }

// Dropped returns the number of cells dropped by the queue bound.
func (l *Link) Dropped() int64 { return l.dropped }

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
	if l.MaxQueue > 0 && l.QueueLen() >= l.MaxQueue {
		l.dropped++
		l.tel.dropped.Inc()
		if l.OnDrop != nil {
			l.OnDrop(e.Now(), c)
		}
		return
	}
	l.pipe.Push(c)
	l.tel.queuePeak.Observe(uint64(l.QueueLen()))
	l.tel.queueDepth.Observe(uint64(l.QueueLen()))
	if l.tel.cellWait.Active() {
		l.waitSince.Push(e.Now())
	}
	if l.OnQueue != nil {
		l.OnQueue(e.Now(), l.QueueLen())
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

// linkTxDone fires when the head cell finishes serialization: meter it,
// hand it to the propagation pipe and restart the transmitter.
func linkTxDone(e *sim.Engine, p sim.Payload) {
	l := p.Obj.(*Link)
	c := l.pipe.Finish()
	l.sent++
	l.tel.sent.Inc()
	if l.tel.cellWait.Active() {
		l.tel.cellWait.Observe(uint64(e.Now().Sub(l.waitSince.Pop())))
	}
	if l.OnQueue != nil {
		l.OnQueue(e.Now(), l.QueueLen())
	}
	if l.OnTransmit != nil {
		l.scratch = c
		l.OnTransmit(e.Now(), &l.scratch)
	}
	if !l.pipe.Depart(e, c, l.Delay, l.Dst) {
		panic(fmt.Sprintf("atmnet: link %q: delivery time went backwards", l.Name))
	}
	l.startTx(e)
}
