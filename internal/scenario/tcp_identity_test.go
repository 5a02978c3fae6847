package scenario

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/tcp"
)

// timerFlows is a flow mix that walks every path of the two TCP timers:
// short and long RTTs (the RTO shrinks after the first sample on some,
// never leaves InitialRTO's neighbourhood on others), every other receiver
// coalescing ACKs, one sender that stops mid-run with data in flight, one
// late starter and one Vegas sender.
func timerFlows(n, exit int) []TCPFlowSpec {
	flows := make([]TCPFlowSpec, n)
	for i := range flows {
		p := tcp.DefaultSenderParams()
		switch i {
		case 3:
			p.Stop = sim.Time(900 * sim.Millisecond)
		case 5:
			p.Start = sim.Time(400 * sim.Millisecond)
		case 7:
			v := tcp.DefaultVegasParams()
			p.Vegas = &v
		}
		flows[i] = TCPFlowSpec{
			Name:        fmt.Sprintf("f%d", i),
			Entry:       i % exit,
			Exit:        exit,
			AccessDelay: sim.Duration(1+i%7*3) * sim.Millisecond,
			Params:      &p,
			DelayedAcks: i%2 == 1,
		}
	}
	return flows
}

// endpointFingerprint folds what the TCP end systems did: totals in the
// clear, the per-flow tuples hashed.
func endpointFingerprint(snd []*tcp.Sender, rcv []*tcp.Receiver) string {
	h := fnv.New64a()
	var delivered, retx, timeouts, acks int64
	for i, s := range snd {
		r := rcv[i]
		fmt.Fprintf(h, "%d %d %d %d %d\n", i, r.DeliveredBytes(), s.Retransmits(), s.Timeouts(), r.AcksSent())
		delivered += r.DeliveredBytes()
		retx += s.Retransmits()
		timeouts += s.Timeouts()
		acks += r.AcksSent()
	}
	return fmt.Sprintf("delivered=%d retx=%d timeouts=%d acks=%d flows=%x", delivered, retx, timeouts, acks, h.Sum64())
}

// TestTCPEventIdentity pins what the TCP scenarios schedule, fire and
// deliver to constants recorded while the RTO and delayed-ACK timers were
// still spelled EventRef.Cancel + AfterFunc, before they moved onto
// sim.Timer: 40 flows over two lossy Selective Discard trunks (RTOs back
// off on the injected loss and shrink again on the next sample), and a
// TCP-over-ATM twin whose small edge queues force timeouts. A timer that
// fires under another (time, seq) than the event it replaced moves a
// same-instant tie somewhere in these runs and with it every count below.
// The TCP-over-ATM constants were recorded again, once, when the cloud's
// receivers started honouring DelayedAcks (every odd flow sets it); the
// TCP/IP ones are the originals.
func TestTCPEventIdentity(t *testing.T) {
	const (
		wantIPFired, wantIPScheduled     = 96756, 102500
		wantATMFired, wantATMScheduled   = 1842750, 1862223
		wantIP                           = "delivered=3279872 retx=257 timeouts=144 acks=5614 flows=9be77072cab85145 drops=119/892 macr=4132c03b9a8ec3de/41050b0e7ec23674"
		wantATM                          = "delivered=9668608 retx=36 timeouts=8 acks=17068 flows=65de68638be1bbc2 edgedrops=157"
		ipDuration, atmDuration          = 3 * sim.Second, 2 * sim.Second
		ipFlows, atmFlows, ipRouterCount = 40, 6, 3
	)
	n, err := BuildTCP(TCPConfig{
		Routers:       ipRouterCount,
		TrunkLossRate: 0.01,
		Disc: func() ip.Discipline {
			return ip.NewPhantomDiscipline(ip.SelectiveDiscard, core.Config{})
		},
		Duration: ipDuration,
		Flows:    timerFlows(ipFlows, ipRouterCount-1),
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(ipDuration)
	got := fmt.Sprintf("%s drops=%d/%d macr=%x/%x", endpointFingerprint(n.Senders, n.Receivers),
		n.TrunkDrops(0), n.TrunkDrops(1), math.Float64bits(n.MACR[0].Last()), math.Float64bits(n.MACR[1].Last()))
	if f, s := n.Engine.Fired(), n.Engine.Scheduled(); f != wantIPFired || s != wantIPScheduled {
		t.Errorf("TCP/IP fired %d scheduled %d, want %d and %d", f, s, wantIPFired, wantIPScheduled)
	}
	if got != wantIP {
		t.Errorf("TCP/IP\n got %s\nwant %s", got, wantIP)
	}
	n.Release()

	a, err := BuildTCPOverATM(InteropConfig{
		Alg:            switchalg.NewPhantom(core.Config{}),
		EdgeQueueBytes: 8 * 1024,
		Flows:          timerFlows(atmFlows, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Run(atmDuration)
	var edgeDrops int64
	for _, in := range a.Ingress {
		edgeDrops += in.DroppedPackets()
	}
	got = fmt.Sprintf("%s edgedrops=%d", endpointFingerprint(a.Senders, a.Receivers), edgeDrops)
	if f, s := a.Engine.Fired(), a.Engine.Scheduled(); f != wantATMFired || s != wantATMScheduled {
		t.Errorf("TCP over ATM fired %d scheduled %d, want %d and %d", f, s, wantATMFired, wantATMScheduled)
	}
	if got != wantATM {
		t.Errorf("TCP over ATM\n got %s\nwant %s", got, wantATM)
	}
}

// TestCloudDelayedAcks: a TCP-over-ATM flow that asks for DelayedAcks
// gets a coalescing receiver, so turning the flag on for one flow of an
// otherwise identical cloud lowers that receiver's ACK count.
func TestCloudDelayedAcks(t *testing.T) {
	acks := func(delayed bool) int64 {
		flows := timerFlows(2, 1)
		for i := range flows {
			flows[i].DelayedAcks = false
		}
		flows[0].DelayedAcks = delayed
		n, err := BuildTCPOverATM(InteropConfig{Alg: switchalg.NewPhantom(core.Config{}), Flows: flows})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Release()
		n.Run(500 * sim.Millisecond)
		if n.Receivers[0].DeliveredBytes() == 0 {
			t.Fatalf("delayed=%v: flow 0 delivered nothing", delayed)
		}
		return n.Receivers[0].AcksSent()
	}
	every, coalesced := acks(false), acks(true)
	if coalesced >= every {
		t.Fatalf("flow 0 sent %d ACKs with DelayedAcks and %d without", coalesced, every)
	}
	t.Logf("flow 0 ACKs: %d acking every segment, %d coalescing", every, coalesced)
}
