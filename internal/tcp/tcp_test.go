package tcp

import (
	"testing"

	"repro/internal/ip"
	"repro/internal/sim"
)

type pktCapture struct {
	pkts []*ip.Packet
}

func (pc *pktCapture) Receive(e *sim.Engine, p *ip.Packet) {
	pc.pkts = append(pc.pkts, p)
}

func newSender(t *testing.T, e *sim.Engine, out ip.Sink) *Sender {
	t.Helper()
	s := NewSender(1, DefaultSenderParams(), out)
	if err := s.Start(e); err != nil {
		t.Fatal(err)
	}
	return s
}

// ack feeds the sender a cumulative ACK.
func ack(e *sim.Engine, s *Sender, ackNo int64) {
	s.Receive(e, &ip.Packet{Flow: 1, Ack: true, AckNo: ackNo})
}

func TestSenderParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*SenderParams)
	}{
		{"zero MSS", func(p *SenderParams) { p.MSS = 0 }},
		{"rwnd below mss", func(p *SenderParams) { p.RcvWnd = 100 }},
		{"rto order", func(p *SenderParams) { p.InitialRTO = p.MinRTO / 2 }},
		{"zero rate interval", func(p *SenderParams) { p.RateInterval = 0 }},
	}
	for _, tc := range cases {
		p := DefaultSenderParams()
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if DefaultSenderParams().MSS != 512 {
		t.Fatal("paper's 512-byte packets drifted")
	}
}

func TestSenderInitialWindowIsOneSegment(t *testing.T) {
	e := sim.NewEngine()
	out := &pktCapture{}
	s := newSender(t, e, out)
	if len(out.pkts) != 1 {
		t.Fatalf("sent %d segments initially, want 1 (cwnd = 1 MSS)", len(out.pkts))
	}
	p := out.pkts[0]
	if p.Seq != 0 || p.Len != 512 || p.Ack {
		t.Fatalf("first segment wrong: %+v", p)
	}
	if s.cwnd != 512 {
		t.Fatalf("cwnd = %v", s.cwnd)
	}
}

func TestSlowStartDoublesPerRTT(t *testing.T) {
	e := sim.NewEngine()
	out := &pktCapture{}
	s := newSender(t, e, out)
	// ACK the first segment: cwnd 1→2 MSS, two new segments out.
	ack(e, s, 512)
	if s.cwnd != 1024 {
		t.Fatalf("cwnd after 1st ACK = %v, want 1024", s.cwnd)
	}
	if len(out.pkts) != 3 { // initial + 2
		t.Fatalf("segments out = %d, want 3", len(out.pkts))
	}
	// ACK both: cwnd = 4 MSS.
	ack(e, s, 1024)
	ack(e, s, 1536)
	if s.cwnd != 2048 {
		t.Fatalf("cwnd = %v, want 2048", s.cwnd)
	}
}

func TestCongestionAvoidanceLinearGrowth(t *testing.T) {
	e := sim.NewEngine()
	out := &pktCapture{}
	p := DefaultSenderParams()
	p.InitialSsthresh = 1024 // leave slow start after 2 segments
	s := NewSender(1, p, out)
	if err := s.Start(e); err != nil {
		t.Fatal(err)
	}
	ack(e, s, 512) // slow start: 512→1024
	if s.cwnd != 1024 {
		t.Fatalf("cwnd = %v", s.cwnd)
	}
	// Now at ssthresh: next ACK grows by MSS²/cwnd = 256.
	ack(e, s, 1024)
	if s.cwnd != 1024+256 {
		t.Fatalf("cwnd = %v, want 1280", s.cwnd)
	}
}

func TestFastRetransmitOnTripleDupAck(t *testing.T) {
	e := sim.NewEngine()
	out := &pktCapture{}
	s := newSender(t, e, out)
	// Open the window.
	ack(e, s, 512)
	ack(e, s, 1024)
	ack(e, s, 1536) // cwnd = 2048, una=1536, nxt=3584 (4 in flight)
	sent := len(out.pkts)
	cwndBefore := s.cwnd

	// Three duplicate ACKs for 1536.
	ack(e, s, 1536)
	ack(e, s, 1536)
	if s.Retransmits() != 0 {
		t.Fatal("retransmitted before the third dupack")
	}
	ack(e, s, 1536)
	if s.Retransmits() != 1 {
		t.Fatalf("retransmits = %d, want 1", s.Retransmits())
	}
	retx := out.pkts[sent]
	if retx.Seq != 1536 || !retx.Retransmit {
		t.Fatalf("retransmitted wrong segment: %+v", retx)
	}
	// ssthresh = flight/2 = 1024; cwnd = ssthresh + 3 MSS.
	if s.ssthresh != 1024 {
		t.Fatalf("ssthresh = %v, want 1024 (half of flight %v)", s.ssthresh, cwndBefore)
	}
	if s.cwnd != 1024+3*512 {
		t.Fatalf("cwnd = %v, want ssthresh+3MSS", s.cwnd)
	}

	// Recovery exit on new ACK deflates to ssthresh.
	ack(e, s, 3584)
	if s.cwnd != s.ssthresh {
		t.Fatalf("cwnd after recovery = %v, want ssthresh %v", s.cwnd, s.ssthresh)
	}
}

func TestWindowInflationDuringRecovery(t *testing.T) {
	e := sim.NewEngine()
	out := &pktCapture{}
	s := newSender(t, e, out)
	for _, a := range []int64{512, 1024, 1536, 2048, 2560} {
		ack(e, s, a)
	}
	for i := 0; i < 3; i++ {
		ack(e, s, 2560)
	}
	inRecovery := s.cwnd
	ack(e, s, 2560) // 4th dupack inflates by one MSS
	if s.cwnd != inRecovery+512 {
		t.Fatalf("cwnd = %v, want inflation to %v", s.cwnd, inRecovery+512)
	}
}

func TestTimeoutCollapsesWindowAndBacksOff(t *testing.T) {
	e := sim.NewEngine()
	out := &pktCapture{}
	s := newSender(t, e, out)
	ack(e, s, 512)
	ack(e, s, 1024) // cwnd = 3 MSS, several segments in flight
	rtoBefore := s.rto

	// Let the retransmission timer expire with no ACKs.
	e.RunUntil(e.Now().Add(2 * rtoBefore))
	if s.Timeouts() == 0 {
		t.Fatal("no timeout fired")
	}
	if s.cwnd != 512 {
		t.Fatalf("cwnd after RTO = %v, want 1 MSS", s.cwnd)
	}
	if s.rto <= rtoBefore {
		t.Fatalf("RTO did not back off: %v → %v", rtoBefore, s.rto)
	}
	// Go-back-N: the retransmission must restart at snd.una.
	last := out.pkts[len(out.pkts)-1]
	if last.Seq != 1024 || !last.Retransmit {
		t.Fatalf("timeout retransmitted %+v, want seq 1024", last)
	}
}

func TestRTOBackoffCapsAtMax(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultSenderParams()
	p.MaxRTO = 4 * sim.Second
	s := NewSender(1, p, &pktCapture{})
	if err := s.Start(e); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(sim.Time(60 * sim.Second))
	if s.rto > p.MaxRTO {
		t.Fatalf("RTO %v exceeded cap %v", s.rto, p.MaxRTO)
	}
	if s.Timeouts() < 3 {
		t.Fatalf("timeouts = %d, want several", s.Timeouts())
	}
}

func TestRTTEstimation(t *testing.T) {
	e := sim.NewEngine()
	out := &pktCapture{}
	s := newSender(t, e, out)
	// ACK arrives 10 ms after the initial transmission at t=0.
	e.At(sim.Time(10*sim.Millisecond), func(en *sim.Engine) { ack(en, s, 512) })
	e.RunUntil(sim.Time(20 * sim.Millisecond))
	if sim.Duration(s.srtt) != 10*sim.Millisecond {
		t.Fatalf("srtt = %v, want 10ms", sim.Duration(s.srtt))
	}
	// RTO = srtt + 4·rttvar = 10 + 4·5 = 30 ms, floored at MinRTO 200 ms.
	if s.rto != s.Params.MinRTO {
		t.Fatalf("rto = %v, want MinRTO floor", s.rto)
	}
}

func TestKarnRuleSkipsRetransmittedSamples(t *testing.T) {
	e := sim.NewEngine()
	out := &pktCapture{}
	s := newSender(t, e, out)
	// Force a timeout, then ACK the retransmission much later; the sample
	// must be discarded (srtt stays 0).
	e.RunUntil(sim.Time(2 * sim.Second))
	if s.Timeouts() == 0 {
		t.Fatal("setup: no timeout")
	}
	ack(e, s, 512)
	if sim.Duration(s.srtt) != 0 {
		t.Fatalf("srtt = %v from a retransmitted segment (Karn violated)", sim.Duration(s.srtt))
	}
}

func TestECNEchoHalvesOncePerRTT(t *testing.T) {
	e := sim.NewEngine()
	out := &pktCapture{}
	s := newSender(t, e, out)
	for _, a := range []int64{512, 1024, 1536, 2048} {
		ack(e, s, a)
	}
	before := s.cwnd
	s.Receive(e, &ip.Packet{Flow: 1, Ack: true, AckNo: 2048, ECN: true})
	// The congestion response must dominate any dupack bookkeeping.
	if s.cwnd > before/2+512 {
		t.Fatalf("cwnd = %v, want ≈half of %v", s.cwnd, before)
	}
	after := s.cwnd
	// A second echo within the same RTT is ignored.
	s.Receive(e, &ip.Packet{Flow: 1, Ack: true, AckNo: 2048, ECN: true})
	if s.cwnd < after {
		t.Fatalf("second echo within RTT reduced cwnd again: %v → %v", after, s.cwnd)
	}
}

func TestQuenchCollapsesToOneSegment(t *testing.T) {
	e := sim.NewEngine()
	s := newSender(t, e, &pktCapture{})
	for _, a := range []int64{512, 1024, 1536} {
		ack(e, s, a)
	}
	before := s.cwnd
	s.Quench(e)
	if s.cwnd != 512 {
		t.Fatalf("cwnd after quench = %v, want 1 MSS", s.cwnd)
	}
	if s.ssthresh != before/2 {
		t.Fatalf("ssthresh = %v, want half of %v", s.ssthresh, before)
	}
	if s.Quenches() != 1 {
		t.Fatalf("quenches = %d", s.Quenches())
	}
}

func TestRateMeasurementStampsCR(t *testing.T) {
	e := sim.NewEngine()
	out := &pktCapture{}
	s := newSender(t, e, out)
	// Deliver steady ACKs so ~100 KB is acked in the first interval.
	e.Every(sim.Millisecond, func(en *sim.Engine) {
		ack(en, s, s.AckedBytes()+512)
	})
	e.RunUntil(sim.Time(200 * sim.Millisecond))
	// 512 B/ms = 4.096 Mb/s.
	if s.rate < 3e6 || s.rate > 5e6 {
		t.Fatalf("measured rate = %v, want ≈4.1e6", s.rate)
	}
	// Packets sent late in the run carry the stamp.
	last := out.pkts[len(out.pkts)-1]
	if last.CurrentRate < 3e6 {
		t.Fatalf("stamped CR = %v", last.CurrentRate)
	}
}

func TestSenderRespectsRcvWnd(t *testing.T) {
	e := sim.NewEngine()
	out := &pktCapture{}
	p := DefaultSenderParams()
	p.RcvWnd = 2048 // 4 segments
	s := NewSender(1, p, out)
	if err := s.Start(e); err != nil {
		t.Fatal(err)
	}
	// Open cwnd far beyond rwnd.
	for i := int64(1); i <= 20; i++ {
		ack(e, s, i*512)
	}
	if flight := len(out.pkts)*512 - int(s.AckedBytes()); flight > 2048 {
		t.Fatalf("flight = %d bytes, exceeds rwnd 2048", flight)
	}
}

func TestSenderStopsAtStopTime(t *testing.T) {
	e := sim.NewEngine()
	out := &pktCapture{}
	p := DefaultSenderParams()
	p.Stop = sim.Time(5 * sim.Millisecond)
	s := NewSender(1, p, out)
	if err := s.Start(e); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(sim.Time(10 * sim.Millisecond))
	n := len(out.pkts)
	ack(e, s, 512) // would normally trigger more segments
	if len(out.pkts) != n {
		t.Fatal("sender transmitted after Stop")
	}
}

func TestSenderStartDelay(t *testing.T) {
	e := sim.NewEngine()
	out := &pktCapture{}
	p := DefaultSenderParams()
	p.Start = sim.Time(50 * sim.Millisecond)
	s := NewSender(1, p, out)
	if err := s.Start(e); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(sim.Time(10 * sim.Millisecond))
	if len(out.pkts) != 0 {
		t.Fatal("sent before Start time")
	}
	e.RunUntil(sim.Time(60 * sim.Millisecond))
	if len(out.pkts) == 0 {
		t.Fatal("never started")
	}
}

func TestReceiverInOrderDelivery(t *testing.T) {
	e := sim.NewEngine()
	back := &pktCapture{}
	r := NewReceiver(1, back)
	var delivered int
	r.OnDeliver = func(_ sim.Time, n int) { delivered += n }
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 0, Len: 512})
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 512, Len: 512})
	if r.DeliveredBytes() != 1024 || delivered != 1024 {
		t.Fatalf("delivered = %d/%d", r.DeliveredBytes(), delivered)
	}
	if len(back.pkts) != 2 || back.pkts[1].AckNo != 1024 {
		t.Fatalf("acks wrong: %+v", back.pkts)
	}
}

func TestReceiverOutOfOrderBuffersAndDupAcks(t *testing.T) {
	e := sim.NewEngine()
	back := &pktCapture{}
	r := NewReceiver(1, back)
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 0, Len: 512})    // ack 512
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 1024, Len: 512}) // gap → dup ack 512
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 1536, Len: 512}) // gap → dup ack 512
	if back.pkts[1].AckNo != 512 || back.pkts[2].AckNo != 512 {
		t.Fatalf("dup acks wrong: %v %v", back.pkts[1].AckNo, back.pkts[2].AckNo)
	}
	// The hole fills: cumulative ACK jumps over the buffered segments.
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 512, Len: 512})
	if got := back.pkts[3].AckNo; got != 2048 {
		t.Fatalf("ack after fill = %d, want 2048", got)
	}
	if r.DeliveredBytes() != 2048 {
		t.Fatalf("delivered = %d", r.DeliveredBytes())
	}
}

func TestReceiverIgnoresDuplicatesBelowRcvNxt(t *testing.T) {
	e := sim.NewEngine()
	back := &pktCapture{}
	r := NewReceiver(1, back)
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 0, Len: 512})
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 0, Len: 512}) // duplicate
	if r.DeliveredBytes() != 512 {
		t.Fatalf("duplicate delivered twice: %d", r.DeliveredBytes())
	}
	if len(back.pkts) != 2 { // still re-ACKed
		t.Fatalf("acks = %d", len(back.pkts))
	}
}

func TestReceiverEchoesECN(t *testing.T) {
	e := sim.NewEngine()
	back := &pktCapture{}
	r := NewReceiver(1, back)
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 0, Len: 512, ECN: true})
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 512, Len: 512})
	if !back.pkts[0].ECN {
		t.Fatal("ECN not echoed")
	}
	if back.pkts[1].ECN {
		t.Fatal("ECN echoed on clean packet")
	}
}

func TestReceiverIgnoresForeign(t *testing.T) {
	e := sim.NewEngine()
	back := &pktCapture{}
	r := NewReceiver(1, back)
	r.Receive(e, &ip.Packet{Flow: 2, Seq: 0, Len: 512})
	r.Receive(e, &ip.Packet{Flow: 1, Ack: true, AckNo: 99})
	if len(back.pkts) != 0 || r.DeliveredBytes() != 0 {
		t.Fatal("foreign packets had effect")
	}
}
