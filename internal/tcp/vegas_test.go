package tcp

import (
	"testing"

	"repro/internal/ip"
	"repro/internal/sim"
)

func vegasParams() SenderParams {
	p := DefaultSenderParams()
	v := DefaultVegasParams()
	p.Vegas = &v
	return p
}

func TestVegasDefaults(t *testing.T) {
	v := DefaultVegasParams()
	if v.Alpha != 2 || v.Beta != 4 || v.Gamma != 1 {
		t.Fatalf("defaults drifted: %+v", v)
	}
}

// ackAt delivers an ACK at a given simulated time so the sender collects
// RTT samples.
func ackAt(e *sim.Engine, s *Sender, at sim.Time, ackNo int64) {
	e.At(at, func(en *sim.Engine) {
		s.Receive(en, &ip.Packet{Flow: s.Flow, Ack: true, AckNo: ackNo})
	})
}

func TestVegasSlowStartDoublesEveryOtherRTT(t *testing.T) {
	e := sim.NewEngine()
	out := &pktCapture{}
	s := NewSender(1, vegasParams(), out)
	if err := s.Start(e); err != nil {
		t.Fatal(err)
	}
	// Constant 10 ms RTT: diff stays 0, so slow start persists and the
	// window must grow by doubling every other RTT — slower than Reno's
	// every-RTT doubling but still geometric.
	ackNo := int64(0)
	at := sim.Time(0)
	for i := 0; i < 12; i++ {
		at = at.Add(10 * sim.Millisecond)
		ackNo += 512 * int64(i+1) // ack whatever is outstanding, roughly
		ackAt(e, s, at, ackNo)
	}
	e.RunUntil(at.Add(sim.Millisecond))
	if s.cwnd <= 2*512 {
		t.Fatalf("cwnd = %v, Vegas slow start never grew", s.cwnd)
	}
}

func TestVegasHoldsWindowInsideBand(t *testing.T) {
	// Synthetic drive of the per-RTT adjustment: baseRTT 10 ms, current
	// RTT such that diff sits between α and β → window must not change.
	e := sim.NewEngine()
	s := NewSender(1, vegasParams(), &pktCapture{})
	if err := s.Start(e); err != nil {
		t.Fatal(err)
	}
	s.vegas.inSS = false
	s.vegas.baseRTT = float64(10 * sim.Millisecond)
	s.cwnd = 8 * 512
	// diff = cwnd·(rtt−base)/rtt/MSS = 8·(12.5−10)/12.5 = 1.6 < α=2 → +1 MSS.
	s.vegas.lastRTT = float64(12500 * sim.Microsecond)
	s.vegas.epochEnd = 0
	s.sndNxt = 100000
	before := s.cwnd
	s.vegasOnNewAck(1)
	if s.cwnd != before+512 {
		t.Fatalf("below α: cwnd %v → %v, want +MSS", before, s.cwnd)
	}
	// diff = 9·(20−10)/20 = 4.5 > β=4 → −1 MSS.
	s.vegas.lastRTT = float64(20 * sim.Millisecond)
	s.vegas.epochEnd = 0
	before = s.cwnd
	s.vegasOnNewAck(1)
	if s.cwnd != before-512 {
		t.Fatalf("above β: cwnd %v → %v, want −MSS", before, s.cwnd)
	}
	// diff = 8·(13.4−10)/13.4 ≈ 2.03 within [α,β] → hold.
	s.cwnd = 8 * 512
	s.vegas.lastRTT = float64(13400 * sim.Microsecond)
	s.vegas.epochEnd = 0
	before = s.cwnd
	s.vegasOnNewAck(1)
	if s.cwnd != before {
		t.Fatalf("inside band: cwnd %v → %v, want hold", before, s.cwnd)
	}
}

func TestVegasAdjustsOncePerRTT(t *testing.T) {
	e := sim.NewEngine()
	s := NewSender(1, vegasParams(), &pktCapture{})
	if err := s.Start(e); err != nil {
		t.Fatal(err)
	}
	s.vegas.inSS = false
	s.vegas.baseRTT = float64(10 * sim.Millisecond)
	s.vegas.lastRTT = float64(11 * sim.Millisecond) // diff < α → grow
	s.sndNxt = 4096
	s.vegas.epochEnd = 0
	before := s.cwnd
	s.vegasOnNewAck(512) // first: adjusts and sets epochEnd = sndNxt
	mid := s.cwnd
	if mid != before+512 {
		t.Fatalf("first adjust: %v → %v", before, mid)
	}
	s.vegasOnNewAck(1024) // still below epochEnd → no change
	if s.cwnd != mid {
		t.Fatalf("second adjust within RTT changed cwnd: %v → %v", mid, s.cwnd)
	}
	s.vegasOnNewAck(4096) // epoch boundary → adjusts again
	if s.cwnd != mid+512 {
		t.Fatalf("epoch boundary did not adjust: %v", s.cwnd)
	}
}

func TestVegasFloorsAtTwoSegments(t *testing.T) {
	e := sim.NewEngine()
	s := NewSender(1, vegasParams(), &pktCapture{})
	if err := s.Start(e); err != nil {
		t.Fatal(err)
	}
	s.vegas.inSS = false
	s.vegas.baseRTT = float64(10 * sim.Millisecond)
	s.vegas.lastRTT = float64(100 * sim.Millisecond) // massive queueing
	s.cwnd = 2 * 512
	for i := 0; i < 10; i++ {
		s.vegas.epochEnd = 0
		s.vegasOnNewAck(int64(i + 1))
	}
	if s.cwnd < 2*512 {
		t.Fatalf("cwnd fell below 2 MSS: %v", s.cwnd)
	}
}

func TestVegasExitsSlowStartOnGamma(t *testing.T) {
	e := sim.NewEngine()
	s := NewSender(1, vegasParams(), &pktCapture{})
	if err := s.Start(e); err != nil {
		t.Fatal(err)
	}
	s.vegas.baseRTT = float64(10 * sim.Millisecond)
	s.cwnd = 16 * 512
	// diff = 16·(12−10)/12 ≈ 2.67 > γ=1 → exit slow start, cwnd −1/8.
	s.vegas.lastRTT = float64(12 * sim.Millisecond)
	s.vegas.epochEnd = 0
	before := s.cwnd
	s.vegasOnNewAck(1)
	if s.vegas.inSS {
		t.Fatal("still in slow start")
	}
	if s.cwnd >= before {
		t.Fatalf("cwnd did not step back on slow-start exit: %v → %v", before, s.cwnd)
	}
}

// End-to-end: a Vegas flow alone on a bottleneck holds a small standing
// queue (between α and β segments) instead of filling the buffer like Reno.
func TestVegasKeepsQueueSmall(t *testing.T) {
	e := sim.NewEngine()
	// 10 Mb/s port with generous buffer.
	var port *ip.Port
	rcvPort := ip.NewPort("rcv", 100e6, sim.Microsecond, nil)
	port = ip.NewPort("btl", 10e6, sim.Millisecond, nil)

	s := NewSender(1, vegasParams(), port)
	back := ip.NewPort("back", 100e6, sim.Millisecond, s)
	r := NewReceiver(1, back)
	rcvPort.Dst = r
	port.Dst = rcvPort
	if err := s.Start(e); err != nil {
		t.Fatal(err)
	}
	maxQ := 0
	e.Every(10*sim.Millisecond, func(*sim.Engine) {
		if q := port.QueueLen(); q > maxQ && e.Now() > sim.Time(2*sim.Second) {
			maxQ = q
		}
	})
	e.RunUntil(sim.Time(10 * sim.Second))
	if r.DeliveredBytes() < 4e6 {
		t.Fatalf("Vegas delivered only %d bytes in 10 s", r.DeliveredBytes())
	}
	// Standing queue after convergence stays within ≈β segments.
	if maxQ > 12 {
		t.Fatalf("steady-state queue = %d pkts, Vegas should hold ≈α..β", maxQ)
	}
	if s.Retransmits() > 5 {
		t.Fatalf("Vegas retransmitted %d times on an uncontended link", s.Retransmits())
	}
}
