package tcp

import (
	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Receiver is the TCP receive side for one flow: it delivers in-order
// payload, buffers out-of-order segments, acknowledges with the cumulative
// next-expected byte, and echoes the ECN bit of marked data packets.
//
// By default every data packet is acknowledged immediately (the paper's
// greedy-source simulations do not use delayed ACKs). Setting DelayedAcks
// enables the RFC 1122 behaviour: an ACK is sent for at least every second
// segment or within AckDelay, whichever comes first; duplicate and
// gap-filling ACKs are always sent immediately, as fast retransmit
// requires.
type Receiver struct {
	Flow int
	// Back carries ACKs toward the sender.
	Back ip.Sink
	// OnDeliver observes each in-order payload delivery (byte count).
	OnDeliver func(now sim.Time, bytes int)
	// DelayedAcks enables RFC 1122 ACK coalescing.
	DelayedAcks bool
	// AckDelay is the delayed-ACK timer (default 200 ms).
	AckDelay sim.Duration

	rcvNxt    int64
	delivered int64
	// outOfOrder holds segment starts → lengths above rcvNxt.
	outOfOrder map[int64]int
	acksSent   int64

	// Delayed-ACK state.
	unacked  int
	ecnPend  bool
	ackTimer *sim.Timer // made the first time an ACK is delayed

	tel receiverTel
}

// receiverTel holds the receiver's pre-resolved telemetry handles (inert
// without a registry).
type receiverTel struct {
	acksSent telemetry.Counter
	oooSegs  telemetry.Counter
}

// Instrument registers the receiver's counters with reg.
func (r *Receiver) Instrument(reg *telemetry.Registry) {
	r.tel = receiverTel{
		acksSent: reg.Counter("tcp.acks_sent"),
		oooSegs:  reg.Counter("tcp.ooo_segments"),
	}
}

// NewReceiver builds a receiver whose ACKs go to back.
func NewReceiver(flow int, back ip.Sink) *Receiver {
	return &Receiver{Flow: flow, Back: back, outOfOrder: map[int64]int{}}
}

// DeliveredBytes returns the total in-order payload delivered.
func (r *Receiver) DeliveredBytes() int64 { return r.delivered }

// AcksSent returns the number of ACKs emitted.
func (r *Receiver) AcksSent() int64 { return r.acksSent }

// Receive implements ip.Sink. The receiver is where a data packet ends: it
// copies the header fields it needs and releases the packet before acting.
func (r *Receiver) Receive(e *sim.Engine, p *ip.Packet) {
	ack, flow, seq, n, ecn := p.Ack, p.Flow, p.Seq, p.Len, p.ECN
	p.Release()
	if ack || flow != r.Flow || n == 0 {
		return
	}
	if ecn {
		r.ecnPend = true
	}
	inOrder := seq == r.rcvNxt
	switch {
	case inOrder:
		r.advance(e, n)
	case seq > r.rcvNxt:
		// Out of order: buffer (idempotently); the ACK below is a dup ACK.
		r.tel.oooSegs.Inc()
		if _, ok := r.outOfOrder[seq]; !ok {
			r.outOfOrder[seq] = n
		}
	default:
		// Below rcvNxt: duplicate of already-delivered data; just re-ACK.
	}

	if !r.DelayedAcks {
		r.sendAck(e)
		return
	}
	// Delayed-ACK policy: dup ACKs and ECN news go out immediately; an
	// in-order segment may wait for a sibling or the timer.
	if !inOrder || r.ecnPend {
		r.sendAck(e)
		return
	}
	r.unacked++
	if r.unacked >= 2 {
		r.sendAck(e)
		return
	}
	if r.ackTimer == nil {
		r.ackTimer = e.NewTimer(receiverAckTimeout, sim.Payload{Obj: r})
	}
	if !r.ackTimer.Armed() {
		delay := r.AckDelay
		if delay == 0 {
			delay = 200 * sim.Millisecond
		}
		r.ackTimer.Reset(delay)
	}
}

// receiverAckTimeout fires the delayed-ACK timer.
func receiverAckTimeout(e *sim.Engine, p sim.Payload) {
	r := p.Obj.(*Receiver)
	if r.unacked > 0 {
		r.sendAck(e)
	}
}

// advance delivers the in-order segment and any buffered continuation.
func (r *Receiver) advance(e *sim.Engine, n int) {
	r.rcvNxt += int64(n)
	r.delivered += int64(n)
	if r.OnDeliver != nil {
		r.OnDeliver(e.Now(), n)
	}
	for len(r.outOfOrder) > 0 {
		l, ok := r.outOfOrder[r.rcvNxt]
		if !ok {
			return
		}
		delete(r.outOfOrder, r.rcvNxt)
		r.rcvNxt += int64(l)
		r.delivered += int64(l)
		if r.OnDeliver != nil {
			r.OnDeliver(e.Now(), l)
		}
	}
}

// sendAck emits the cumulative ACK, folding in a pending ECN echo and
// resetting the delayed-ACK state.
func (r *Receiver) sendAck(e *sim.Engine) {
	r.acksSent++
	r.tel.acksSent.Inc()
	r.unacked = 0
	if r.ackTimer != nil {
		r.ackTimer.Stop()
	}
	echo := r.ecnPend
	r.ecnPend = false
	r.Back.Receive(e, ip.NewPacket(ip.Packet{
		Flow:   r.Flow,
		Ack:    true,
		AckNo:  r.rcvNxt,
		ECN:    echo,
		SentAt: e.Now(),
	}))
}
