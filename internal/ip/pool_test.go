package ip_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/tcp"
)

// poolFlows is the flow mix of the TCP scenarios' event-identity test:
// short and long RTTs, every other receiver coalescing ACKs, one sender
// stopping with data in flight, one late starter and one Vegas sender.
func poolFlows(n, exit int) []scenario.TCPFlowSpec {
	flows := make([]scenario.TCPFlowSpec, n)
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
		flows[i] = scenario.TCPFlowSpec{
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

// runOutcome is what one run did, as far as packets can move it.
type runOutcome struct {
	fired, scheduled uint64
	endpoints        string
}

func endpoints(snd []*tcp.Sender, rcv []*tcp.Receiver, extra string) string {
	s := extra
	for i := range snd {
		s += fmt.Sprintf(" %d:%d/%d/%d/%d/%d", i, rcv[i].DeliveredBytes(), rcv[i].AcksSent(),
			snd[i].AckedBytes(), snd[i].Retransmits(), snd[i].Timeouts())
	}
	return s
}

// lossyDiscard is 40 Reno flows over two lossy Selective Discard trunks:
// every port release point (loss, discipline, tail) and both end systems.
func lossyDiscard(t *testing.T) runOutcome {
	const d = 3 * sim.Second
	n, err := scenario.BuildTCP(scenario.TCPConfig{
		Routers:       3,
		TrunkLossRate: 0.01,
		Disc: func() ip.Discipline {
			return ip.NewPhantomDiscipline(ip.SelectiveDiscard, core.Config{})
		},
		Duration: d,
		Flows:    poolFlows(40, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Release()
	n.Run(d)
	if n.TrunkDrops(0) == 0 || n.TrunkDrops(1) == 0 {
		t.Fatal("no trunk drops: the run does not exercise Port.drop")
	}
	return runOutcome{n.Engine.Fired(), n.Engine.Scheduled(),
		endpoints(n.Senders, n.Receivers, fmt.Sprintf("drops=%d/%d", n.TrunkDrops(0), n.TrunkDrops(1)))}
}

// edgeDrops is TCP over ATM with 8 KiB edge queues, which drop at the
// ingress edge: the interop release points and packets carried by cells.
func edgeDrops(t *testing.T) runOutcome {
	a, err := scenario.BuildTCPOverATM(scenario.InteropConfig{
		Alg:            switchalg.NewPhantom(core.Config{}),
		EdgeQueueBytes: 8 * 1024,
		Flows:          poolFlows(6, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Run(2 * sim.Second)
	var dropped int64
	for _, in := range a.Ingress {
		dropped += in.DroppedPackets()
	}
	if dropped == 0 {
		t.Fatal("no edge drops: the run does not exercise IngressEdge's release")
	}
	return runOutcome{a.Engine.Fired(), a.Engine.Scheduled(),
		endpoints(a.Senders, a.Receivers, fmt.Sprintf("edgedrops=%d", dropped))}
}

// TestRecycleIsInvisible runs the two TCP event-identity networks with
// released packets returned to the pool and with recycling off, where a
// released packet stays poisoned (Flow -1) for good: a component that
// forwards a packet after releasing it then panics at the next router, and
// one that reads it moves a count. Both runs must agree event for event.
func TestRecycleIsInvisible(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T) runOutcome
	}{
		{"lossy-discard", lossyDiscard},
		{"tcp-over-atm", edgeDrops},
	} {
		t.Run(tc.name, func(t *testing.T) {
			on := tc.run(t)
			restore := ip.SetRecycle(false)
			defer restore()
			off := tc.run(t)
			if on.fired != off.fired || on.scheduled != off.scheduled {
				t.Errorf("fired/scheduled %d/%d recycled, %d/%d not", on.fired, on.scheduled, off.fired, off.scheduled)
			}
			if on.endpoints != off.endpoints {
				t.Errorf("endpoints differ\nrecycled %s\n     not %s", on.endpoints, off.endpoints)
			}
		})
	}
}

// TestPoolSharedAcrossEngines runs both networks on engines side by side,
// as the fleet does: they share the one packet pool, and each must still
// match its run alone.
func TestPoolSharedAcrossEngines(t *testing.T) {
	runs := []func(*testing.T) runOutcome{lossyDiscard, edgeDrops}
	want := make([]runOutcome, len(runs))
	for i, run := range runs {
		want[i] = run(t)
	}
	t.Run("parallel", func(t *testing.T) {
		for i := 0; i < 4; i++ {
			k := i % len(runs)
			t.Run(fmt.Sprint(i), func(t *testing.T) {
				t.Parallel()
				if got := runs[k](t); got != want[k] {
					t.Errorf("run %d alongside others: %+v, alone: %+v", k, got, want[k])
				}
			})
		}
	})
}
