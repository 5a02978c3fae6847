package tcp

import (
	"testing"

	"repro/internal/ip"
	"repro/internal/sim"
)

func delAckReceiver() (*sim.Engine, *Receiver, *pktCapture) {
	e := sim.NewEngine()
	back := &pktCapture{}
	r := NewReceiver(1, back)
	r.DelayedAcks = true
	return e, r, back
}

func TestDelayedAckCoalescesPairs(t *testing.T) {
	e, r, back := delAckReceiver()
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 0, Len: 512})
	if len(back.pkts) != 0 {
		t.Fatal("first segment acked immediately despite delayed ACKs")
	}
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 512, Len: 512})
	if len(back.pkts) != 1 {
		t.Fatalf("acks = %d, want 1 (coalesced)", len(back.pkts))
	}
	if back.pkts[0].AckNo != 1024 {
		t.Fatalf("ackNo = %d, want 1024", back.pkts[0].AckNo)
	}
}

func TestDelayedAckTimerFiresForLoneSegment(t *testing.T) {
	e, r, back := delAckReceiver()
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 0, Len: 512})
	e.RunUntil(sim.Time(100 * sim.Millisecond))
	if len(back.pkts) != 0 {
		t.Fatal("timer fired before 200 ms")
	}
	e.RunUntil(sim.Time(250 * sim.Millisecond))
	if len(back.pkts) != 1 || back.pkts[0].AckNo != 512 {
		t.Fatalf("timer ack wrong: %+v", back.pkts)
	}
	// No spurious second fire.
	e.RunUntil(sim.Time(sim.Second))
	if len(back.pkts) != 1 {
		t.Fatalf("extra acks: %d", len(back.pkts))
	}
}

func TestDelayedAckDupAcksImmediate(t *testing.T) {
	e, r, back := delAckReceiver()
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 0, Len: 512})    // held
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 1024, Len: 512}) // gap → dup ACK now
	if len(back.pkts) != 1 || back.pkts[0].AckNo != 512 {
		t.Fatalf("dup ack not immediate: %+v", back.pkts)
	}
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 1536, Len: 512}) // still a gap
	if len(back.pkts) != 2 {
		t.Fatal("second dup ack not immediate")
	}
}

func TestDelayedAckECNImmediate(t *testing.T) {
	e, r, back := delAckReceiver()
	r.Receive(e, &ip.Packet{Flow: 1, Seq: 0, Len: 512, ECN: true})
	if len(back.pkts) != 1 || !back.pkts[0].ECN {
		t.Fatalf("ECN news delayed: %+v", back.pkts)
	}
}

// End-to-end: a connection with delayed ACKs still fills the pipe, with
// roughly half the ACK traffic.
func TestDelayedAckEndToEnd(t *testing.T) {
	run := func(delayed bool) (int64, int64) {
		e := sim.NewEngine()
		fwd := ip.NewPort("fwd", 10e6, sim.Millisecond, nil)
		s := NewSender(1, DefaultSenderParams(), fwd)
		back := ip.NewPort("back", 10e6, sim.Millisecond, s)
		r := NewReceiver(1, back)
		r.DelayedAcks = delayed
		fwd.Dst = r
		if err := s.Start(e); err != nil {
			t.Fatal(err)
		}
		e.RunUntil(sim.Time(5 * sim.Second))
		return r.DeliveredBytes(), r.AcksSent()
	}
	bytesImm, acksImm := run(false)
	bytesDel, acksDel := run(true)
	if bytesDel < bytesImm/2 {
		t.Fatalf("delayed ACKs crippled throughput: %d vs %d", bytesDel, bytesImm)
	}
	if acksDel > acksImm*2/3 {
		t.Fatalf("ACK traffic not reduced: %d vs %d", acksDel, acksImm)
	}
}
