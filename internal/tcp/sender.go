// Package tcp implements the TCP Reno end systems of the paper's Section
// 4.3 simulations, following the pseudo-code in Stevens, TCP/IP
// Illustrated, Section 21 (the paper's own reference): slow start,
// congestion avoidance, Jacobson/Karn RTT estimation with exponential
// backoff, triple-duplicate-ACK fast retransmit and Reno fast recovery.
// Sources are greedy with 512-byte segments, per the paper.
//
// Additions from the paper: each sender measures its rate as "the ratio
// between the size of payload transmitted and acknowledged by the
// destination in a time interval, and the length of the time interval",
// and stamps it into the CR header field of every data packet; senders
// also react to ECN echoes (the EFCI-bit mechanism) and to ICMP Source
// Quench (reducing the window as if a packet was dropped).
package tcp

import (
	"fmt"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// SenderParams configures a Reno sender.
type SenderParams struct {
	// MSS is the maximum segment size in bytes (paper: 512).
	MSS int
	// RcvWnd is the receiver's advertised window in bytes (default 64 KB).
	RcvWnd int
	// MinRTO floors the retransmission timer (default 200 ms); InitialRTO
	// is used before the first RTT sample (default 1 s); MaxRTO caps
	// exponential backoff (default 64 s).
	MinRTO     sim.Duration
	InitialRTO sim.Duration
	MaxRTO     sim.Duration
	// RateInterval is the CR measurement interval (default 50 ms).
	RateInterval sim.Duration
	// Vegas switches congestion avoidance from Reno to TCP Vegas with the
	// given thresholds; nil keeps Reno. Loss recovery is shared.
	Vegas *VegasParams
	// Start delays the connection's first transmission.
	Start sim.Time
	// Stop ends transmission (0 = never).
	Stop sim.Time
}

// DefaultSenderParams returns the paper's configuration: greedy source,
// 512-byte packets.
func DefaultSenderParams() SenderParams {
	return SenderParams{
		MSS:          512,
		RcvWnd:       64 * 1024,
		MinRTO:       200 * sim.Millisecond,
		InitialRTO:   sim.Second,
		MaxRTO:       64 * sim.Second,
		RateInterval: 50 * sim.Millisecond,
	}
}

// Validate reports whether the parameters are usable.
func (p SenderParams) Validate() error {
	switch {
	case p.MSS <= 0:
		return fmt.Errorf("tcp: MSS must be positive, got %d", p.MSS)
	case p.RcvWnd < p.MSS:
		return fmt.Errorf("tcp: RcvWnd %d below MSS %d", p.RcvWnd, p.MSS)
	case p.MinRTO <= 0 || p.InitialRTO < p.MinRTO || p.MaxRTO < p.InitialRTO:
		return fmt.Errorf("tcp: RTO ordering violated (min %v, init %v, max %v)", p.MinRTO, p.InitialRTO, p.MaxRTO)
	case p.RateInterval <= 0:
		return fmt.Errorf("tcp: RateInterval must be positive")
	}
	return nil
}

// Sender is a greedy TCP Reno sender for one flow.
type Sender struct {
	Flow   int
	Params SenderParams
	Out    ip.Sink // toward the first router

	// Connection state (bytes).
	sndUna   int64
	sndNxt   int64
	cwnd     float64
	ssthresh float64

	// Fast retransmit / recovery.
	dupAcks    int
	inRecovery bool

	// RTT estimation (Jacobson), all in ns.
	srtt     float64
	rttvar   float64
	rto      sim.Duration
	timer    *sim.Timer // retransmission timer; made by Start
	timedSeq int64      // sequence being timed for RTT (Karn)
	timedAt  sim.Time
	timing   bool

	// CR measurement.
	rate       float64
	lastAcked  int64
	lastRateAt sim.Time

	// ECN: react at most once per RTT.
	ecnReactedAt sim.Time
	ecnReacted   bool

	// Vegas bookkeeping (nil in Reno mode).
	vegas *vegasState

	// Stats.
	retransmits, timeouts, quenches int64
	started                         bool
	stopped                         bool

	tel senderTel
}

// senderTel holds the sender's pre-resolved telemetry handles (inert without
// a registry).
type senderTel struct {
	segsSent     telemetry.Counter
	retransmits  telemetry.Counter
	timeouts     telemetry.Counter
	quenches     telemetry.Counter
	ecnReactions telemetry.Counter
	cwndPeak     telemetry.Gauge
}

// Instrument registers the sender's counters with reg.
func (s *Sender) Instrument(reg *telemetry.Registry) {
	s.tel = senderTel{
		segsSent:     reg.Counter("tcp.segments_sent"),
		retransmits:  reg.Counter("tcp.retransmits"),
		timeouts:     reg.Counter("tcp.timeouts"),
		quenches:     reg.Counter("tcp.quenches"),
		ecnReactions: reg.Counter("tcp.ecn_reactions"),
		cwndPeak:     reg.Gauge("tcp.cwnd_bytes_peak"),
	}
}

// NewSender constructs a sender for flow with output out.
func NewSender(flow int, params SenderParams, out ip.Sink) *Sender {
	return &Sender{Flow: flow, Params: params, Out: out}
}

// AckedBytes returns the cumulatively acknowledged payload.
func (s *Sender) AckedBytes() int64 { return s.sndUna }

// Retransmits returns the retransmitted-segment count.
func (s *Sender) Retransmits() int64 { return s.retransmits }

// Timeouts returns the RTO-expiry count.
func (s *Sender) Timeouts() int64 { return s.timeouts }

// Quenches returns the number of Source Quench signals honoured.
func (s *Sender) Quenches() int64 { return s.quenches }

// Start validates parameters and begins transmitting at Params.Start.
func (s *Sender) Start(e *sim.Engine) error {
	if err := s.Params.Validate(); err != nil {
		return err
	}
	s.cwnd = float64(s.Params.MSS)
	s.ssthresh = float64(s.Params.RcvWnd)
	s.rto = s.Params.InitialRTO
	if s.Params.Vegas != nil {
		s.vegas = &vegasState{params: *s.Params.Vegas, inSS: true}
	}
	s.timer = e.NewTimer(senderTimeout, sim.Payload{Obj: s})
	s.started = true
	if s.Params.Start > e.Now() {
		e.AtFunc(s.Params.Start, senderBegin, sim.Payload{Obj: s})
	} else {
		senderBegin(e, sim.Payload{Obj: s})
	}
	if s.Params.Stop > 0 {
		e.AtFunc(s.Params.Stop, senderStop, sim.Payload{Obj: s})
	}
	s.notifyCwnd()
	return nil
}

// senderBegin starts the Sender in p.Obj transmitting and its rate ticker.
func senderBegin(e *sim.Engine, p sim.Payload) {
	s := p.Obj.(*Sender)
	s.lastRateAt = e.Now()
	e.Every(s.Params.RateInterval, senderRateTick, p)
	s.trySend(e)
}

// senderRateTick recomputes the stamped CR of the Sender in p.Obj.
func senderRateTick(e *sim.Engine, p sim.Payload) { p.Obj.(*Sender).updateRate(e.Now()) }

// senderStop ends the Sender in p.Obj's transmission at Params.Stop.
func senderStop(_ *sim.Engine, p sim.Payload) { p.Obj.(*Sender).stopped = true }

// notifyCwnd records a congestion-window change in the peak telemetry.
func (s *Sender) notifyCwnd() {
	s.tel.cwndPeak.Observe(uint64(s.cwnd))
}

// updateRate recomputes the stamped CR from acknowledged payload.
func (s *Sender) updateRate(now sim.Time) {
	dt := now.Sub(s.lastRateAt).Seconds()
	if dt <= 0 {
		return
	}
	s.rate = float64(s.sndUna-s.lastAcked) * 8 / dt
	s.lastAcked = s.sndUna
	s.lastRateAt = now
}

// window returns the usable send window in bytes.
func (s *Sender) window() float64 {
	w := s.cwnd
	if rw := float64(s.Params.RcvWnd); rw < w {
		w = rw
	}
	return w
}

// trySend transmits new segments while the window allows.
func (s *Sender) trySend(e *sim.Engine) {
	if !s.started || s.stopped {
		return
	}
	for float64(s.sndNxt-s.sndUna)+float64(s.Params.MSS) <= s.window() {
		s.transmit(e, s.sndNxt, false)
		s.sndNxt += int64(s.Params.MSS)
	}
}

// transmit emits one segment.
func (s *Sender) transmit(e *sim.Engine, seq int64, isRetransmit bool) {
	p := ip.NewPacket(ip.Packet{
		Flow:        s.Flow,
		Seq:         seq,
		Len:         s.Params.MSS,
		CurrentRate: s.rate,
	})
	s.tel.segsSent.Inc()
	if isRetransmit {
		s.retransmits++
		s.tel.retransmits.Inc()
	}
	// RTT timing (Karn: never time a retransmitted sequence).
	if !s.timing && !isRetransmit {
		s.timing = true
		s.timedSeq = seq
		s.timedAt = e.Now()
	}
	// Start the timer if it is not running, restart it for the oldest
	// outstanding segment. (It reads as not running inside onTimeout too,
	// whose retransmission is of sndUna.)
	if !s.timer.Armed() || seq == s.sndUna {
		s.timer.Reset(s.rto)
	}
	s.Out.Receive(e, p)
}

func senderTimeout(e *sim.Engine, p sim.Payload) {
	p.Obj.(*Sender).onTimeout(e)
}

// onTimeout is the RTO expiry path: multiplicative backoff, window to one
// segment, go-back-N from the oldest unacknowledged byte. With nothing in
// flight, or the sender stopped, the timer is left disarmed.
func (s *Sender) onTimeout(e *sim.Engine) {
	if s.sndNxt == s.sndUna || s.stopped {
		return
	}
	s.timeouts++
	s.tel.timeouts.Inc()
	flight := float64(s.sndNxt - s.sndUna)
	s.ssthresh = maxF(flight/2, 2*float64(s.Params.MSS))
	s.cwnd = float64(s.Params.MSS)
	s.inRecovery = false
	s.dupAcks = 0
	s.timing = false // Karn: discard the sample
	s.rto *= 2
	if s.rto > s.Params.MaxRTO {
		s.rto = s.Params.MaxRTO
	}
	s.sndNxt = s.sndUna
	s.transmit(e, s.sndNxt, true)
	s.sndNxt += int64(s.Params.MSS)
	s.notifyCwnd()
}

// Receive implements ip.Sink: the sender consumes ACKs for its flow. It is
// where every packet handed to it ends, ignored ones included: it copies the
// header fields it needs and releases the packet before acting.
func (s *Sender) Receive(e *sim.Engine, p *ip.Packet) {
	ack, flow, ackNo, ecn := p.Ack, p.Flow, p.AckNo, p.ECN
	p.Release()
	if !ack || flow != s.Flow || !s.started {
		return
	}
	if ecn {
		s.onECNEcho(e)
	}
	switch {
	case ackNo > s.sndUna:
		s.onNewAck(e, ackNo)
	case ackNo == s.sndUna && s.sndNxt > s.sndUna:
		s.onDupAck(e)
	}
	s.trySend(e)
}

// onNewAck advances the window and grows cwnd.
func (s *Sender) onNewAck(e *sim.Engine, ackNo int64) {
	// RTT sample (Karn's rule honoured by the timing flag).
	if s.timing && ackNo > s.timedSeq {
		s.sampleRTT(e.Now().Sub(s.timedAt))
		s.timing = false
	}
	s.sndUna = ackNo
	if s.sndNxt < s.sndUna {
		s.sndNxt = s.sndUna
	}
	mss := float64(s.Params.MSS)
	switch {
	case s.inRecovery:
		// Reno: any new ACK ends fast recovery and deflates the window.
		s.inRecovery = false
		s.cwnd = s.ssthresh
	case s.vegas != nil:
		s.vegasOnNewAck(ackNo)
	case s.cwnd < s.ssthresh:
		s.cwnd += mss // slow start
	default:
		s.cwnd += mss * mss / s.cwnd // congestion avoidance
	}
	s.dupAcks = 0
	// The timer restarts on every cumulative ACK; sim.Timer re-arms in
	// place, so this neither allocates nor touches the calendar.
	if s.sndNxt > s.sndUna {
		s.timer.Reset(s.rto)
	} else {
		s.timer.Stop()
	}
	s.notifyCwnd()
}

// onDupAck implements fast retransmit and Reno fast recovery.
func (s *Sender) onDupAck(e *sim.Engine) {
	s.dupAcks++
	mss := float64(s.Params.MSS)
	switch {
	case s.dupAcks == 3:
		flight := float64(s.sndNxt - s.sndUna)
		s.ssthresh = maxF(flight/2, 2*mss)
		s.transmit(e, s.sndUna, true)
		s.cwnd = s.ssthresh + 3*mss
		s.inRecovery = true
		s.notifyCwnd()
	case s.dupAcks > 3 && s.inRecovery:
		s.cwnd += mss // window inflation
		s.notifyCwnd()
	}
}

// onECNEcho halves the window at most once per RTT, without retransmission
// — the EFCI-bit reaction of Section 4.
func (s *Sender) onECNEcho(e *sim.Engine) {
	now := e.Now()
	rtt := sim.Duration(s.srtt)
	if rtt <= 0 {
		rtt = s.Params.MinRTO
	}
	if s.ecnReacted && now.Sub(s.ecnReactedAt) < rtt {
		return
	}
	s.ecnReacted = true
	s.ecnReactedAt = now
	s.tel.ecnReactions.Inc()
	mss := float64(s.Params.MSS)
	s.ssthresh = maxF(s.cwnd/2, 2*mss)
	s.cwnd = s.ssthresh
	s.notifyCwnd()
}

// Quench is the ICMP Source Quench reaction: per [BP87] and the paper, the
// source reduces its window as if a packet was dropped (slow start).
func (s *Sender) Quench(e *sim.Engine) {
	if !s.started {
		return
	}
	s.quenches++
	s.tel.quenches.Inc()
	mss := float64(s.Params.MSS)
	s.ssthresh = maxF(s.cwnd/2, 2*mss)
	s.cwnd = mss
	s.notifyCwnd()
}

// sampleRTT runs the Jacobson estimator and recomputes RTO.
func (s *Sender) sampleRTT(m sim.Duration) {
	if s.vegas != nil {
		s.vegasOnRTTSample(m)
	}
	mf := float64(m)
	if s.srtt == 0 {
		s.srtt = mf
		s.rttvar = mf / 2
	} else {
		err := mf - s.srtt
		abs := err
		if abs < 0 {
			abs = -abs
		}
		s.rttvar += (abs - s.rttvar) / 4
		s.srtt += err / 8
	}
	rto := sim.Duration(s.srtt + 4*s.rttvar)
	if rto < s.Params.MinRTO {
		rto = s.Params.MinRTO
	}
	if rto > s.Params.MaxRTO {
		rto = s.Params.MaxRTO
	}
	s.rto = rto
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
