package tcp

import (
	"testing"
	"testing/quick"

	"repro/internal/ip"
	"repro/internal/sim"
)

// Property: whatever ACK stream arrives (valid cumulative ACKs, duplicates,
// stale ACKs, ECN echoes, quenches), the Reno sender's core invariants
// hold: cwnd ≥ 1 MSS, ssthresh ≥ 2 MSS after any reduction, snd.una is
// non-decreasing, snd.una ≤ snd.nxt, and flight never exceeds the window.
func TestSenderInvariantsUnderRandomAcks(t *testing.T) {
	f := func(script []uint8) bool {
		e := sim.NewEngine()
		out := &pktCapture{}
		s := NewSender(1, DefaultSenderParams(), out)
		if err := s.Start(e); err != nil {
			return false
		}
		mss := int64(s.Params.MSS)
		prevUna := int64(0)
		for _, b := range script {
			switch b % 5 {
			case 0: // cumulative ACK of one new segment
				s.Receive(e, &ip.Packet{Flow: 1, Ack: true, AckNo: s.AckedBytes() + mss})
			case 1: // duplicate ACK
				s.Receive(e, &ip.Packet{Flow: 1, Ack: true, AckNo: s.AckedBytes()})
			case 2: // stale (old) ACK
				old := s.AckedBytes() - mss
				if old < 0 {
					old = 0
				}
				s.Receive(e, &ip.Packet{Flow: 1, Ack: true, AckNo: old})
			case 3: // ECN echo
				s.Receive(e, &ip.Packet{Flow: 1, Ack: true, AckNo: s.AckedBytes(), ECN: true})
			case 4: // source quench
				s.Quench(e)
			}
			// Let timers fire occasionally.
			if b%16 == 0 {
				e.RunUntil(e.Now().Add(300 * sim.Millisecond))
			}

			if s.cwnd < float64(mss) {
				t.Logf("cwnd %v below one MSS", s.cwnd)
				return false
			}
			if s.ssthresh != 0 && s.ssthresh < 2*float64(mss)-1e-9 && s.ssthresh != float64(s.Params.RcvWnd) {
				t.Logf("ssthresh %v below 2 MSS", s.ssthresh)
				return false
			}
			if s.AckedBytes() < prevUna {
				t.Logf("snd.una went backwards: %d < %d", s.AckedBytes(), prevUna)
				return false
			}
			prevUna = s.AckedBytes()
			if s.sndNxt < s.sndUna {
				t.Logf("snd.nxt %d below snd.una %d", s.sndNxt, s.sndUna)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the receiver delivers exactly the maximal contiguous prefix of
// whatever segment set has arrived, regardless of arrival order, and never
// delivers a byte twice.
func TestReceiverPrefixDeliveryProperty(t *testing.T) {
	f := func(order []uint8) bool {
		const segs = 12
		const mss = 512
		e := sim.NewEngine()
		back := &pktCapture{}
		r := NewReceiver(1, back)

		arrived := make([]bool, segs)
		for _, b := range order {
			i := int(b) % segs
			arrived[i] = true
			r.Receive(e, &ip.Packet{Flow: 1, Seq: int64(i) * mss, Len: mss})

			// Expected delivery: maximal contiguous prefix.
			want := int64(0)
			for j := 0; j < segs && arrived[j]; j++ {
				want += mss
			}
			if r.DeliveredBytes() != want {
				t.Logf("delivered %d, want prefix %d (arrived %v)", r.DeliveredBytes(), want, arrived)
				return false
			}
			if r.rcvNxt != want {
				t.Logf("rcvNxt %d, want %d", r.rcvNxt, want)
				return false
			}
			// Last ACK always announces rcvNxt.
			last := back.pkts[len(back.pkts)-1]
			if last.AckNo != want {
				t.Logf("ack %d, want %d", last.AckNo, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a lossy pipe between sender and receiver never deadlocks — the
// connection always makes forward progress given enough time, for any loss
// pattern driven by a seed.
func TestLossyPipeProgressProperty(t *testing.T) {
	f := func(seed uint16) bool {
		e := sim.NewEngine()
		fwd := ip.NewPort("fwd", 2e6, sim.Millisecond, nil)
		fwd.LossRate = 0.10
		fwd.LossSeed = uint64(seed)
		s := NewSender(1, DefaultSenderParams(), fwd)
		back := ip.NewPort("back", 2e6, sim.Millisecond, s)
		back.LossRate = 0.05
		back.LossSeed = uint64(seed) + 1
		r := NewReceiver(1, back)
		fwd.Dst = r
		if err := s.Start(e); err != nil {
			return false
		}
		// 10%/5% loss is harsh for Reno, but 30 s at 2 Mb/s delivers
		// something well beyond a handful of segments — unless the flow
		// loses enough in a row to spend those 30 s in exponential back-off,
		// as 32 of the 65 536 seeds do. That is slow, not stuck: such a seed
		// is run on past a maximal back-off (all 32 deliver > 4 MB by 300 s)
		// and fails only if it is still under the bar.
		const bar = 50 * 512
		e.RunUntil(sim.Time(30 * sim.Second))
		if r.DeliveredBytes() > bar {
			return true
		}
		e.RunUntil(sim.Time(300 * sim.Second))
		return r.DeliveredBytes() > bar
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
