package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/switchalg"
)

// TestEventAccountingIsExact holds Canceled and Pending to their comments on
// runs whose only cancellations are TCP's timers and most of whose events
// wait in bands: 200 Reno flows, half of them with delayed ACKs, through a
// lossy Selective Discard trunk (every port's deliveries on the band of its
// delay), and six flows over an ATM trunk (every link's tx-done and delivery
// on bands). At every instant Scheduled = Fired + Canceled + live, the live
// entries being Pending — the calendar's entries and the events queued in
// bands behind their heads — less the dead cells a walk of the calendar
// finds. The census is logged (-v): the dead share is what is left of the
// tombstones that an RTO restarted by every ACK used to file. Scenarios
// build their engines on the heap; the wheel's accounting is held by the
// sweeps of the package's own tests.
func TestEventAccountingIsExact(t *testing.T) {
	flows := accountingFlows()
	type net struct {
		e       *sim.Engine
		run     func(sim.Duration)
		release func()
	}
	for _, tc := range []struct {
		name  string
		build func() (net, error)
	}{
		{"TCP/IP", func() (net, error) {
			n, err := buildLossyTCP(flows)
			if err != nil {
				return net{}, err
			}
			return net{n.Engine, n.Run, n.Release}, nil
		}},
		{"TCP over ATM", func() (net, error) {
			n, err := scenario.BuildTCPOverATM(scenario.InteropConfig{
				Alg:            switchalg.NewPhantom(core.Config{}),
				EdgeQueueBytes: 8 * 1024,
				Flows:          flows[:6],
			})
			if err != nil {
				return net{}, err
			}
			return net{n.Engine, n.Run, func() {}}, nil
		}},
	} {
		n, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		e, name := n.e, tc.name
		for _, d := range []sim.Duration{300 * sim.Millisecond, 450 * sim.Millisecond, 750 * sim.Millisecond} {
			n.run(d)
			entries, live := sim.CalendarCensus(e)
			bands, queued := sim.BandCensus(e)
			t.Logf("%s t=%v: scheduled %d fired %d canceled %d, %d pending of which %d live and %d queued in %d bands",
				name, e.Now(), e.Scheduled(), e.Fired(), e.Canceled(), entries, live, queued, bands)
			if entries != e.Pending() {
				t.Errorf("%s t=%v: Pending() = %d, the calendar and the bands hold %d entries", name, e.Now(), e.Pending(), entries)
			}
			if got := e.Fired() + e.Canceled() + uint64(live); got != e.Scheduled() {
				t.Errorf("%s t=%v: fired %d + canceled %d + live %d = %d, Scheduled() = %d",
					name, e.Now(), e.Fired(), e.Canceled(), live, got, e.Scheduled())
			}
			if e.Canceled() == 0 || entries == live {
				t.Errorf("%s t=%v: canceled %d, %d dead cells: the run exercises no timer", name, e.Now(), e.Canceled(), entries-live)
			}
			if queued == 0 {
				t.Errorf("%s t=%v: no event waits in a band: the run exercises none", name, e.Now())
			}
		}
		n.release()
	}
}

// accountingFlows is 200 Reno flows, half of them with delayed ACKs.
func accountingFlows() []scenario.TCPFlowSpec {
	flows := make([]scenario.TCPFlowSpec, 200)
	for i := range flows {
		flows[i] = scenario.TCPFlowSpec{
			Name:        fmt.Sprintf("f%d", i),
			Exit:        1,
			AccessDelay: sim.Duration(1+i%9) * sim.Millisecond,
			DelayedAcks: i%2 == 1,
		}
	}
	return flows
}

// buildLossyTCP runs flows through a lossy Selective Discard trunk.
func buildLossyTCP(flows []scenario.TCPFlowSpec) (*scenario.TCPNet, error) {
	return scenario.BuildTCP(scenario.TCPConfig{
		Routers:       2,
		TrunkRateBPS:  100e6,
		TrunkLossRate: 0.005,
		Disc: func() ip.Discipline {
			return ip.NewPhantomDiscipline(ip.SelectiveDiscard, core.Config{})
		},
		Flows: flows,
	})
}

// TestEventHeapHoldsNoTimers: the events that fire sift past no long-lived
// ones. At three instants of the 200-flow TCP/IP run the event calendar
// holds no timer cell, every sender's rate ticker waits in a band, and the
// timer heap holds every armed timer's tracked cell: they are what Scheduled − Fired − Canceled leaves once the live
// events outside the timer heap are taken off.
func TestEventHeapHoldsNoTimers(t *testing.T) {
	flows := accountingFlows()
	n, err := buildLossyTCP(flows)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Release()
	e := n.Engine
	for _, d := range []sim.Duration{300 * sim.Millisecond, 450 * sim.Millisecond, 750 * sim.Millisecond} {
		n.Run(d)
		c := sim.Filing(e)
		t.Logf("t=%v: %+v", e.Now(), c)
		if c.TimerCells != 0 {
			t.Errorf("t=%v: the event calendar holds %d timer cells", e.Now(), c.TimerCells)
		}
		if c.BandTicks < len(flows) {
			t.Errorf("t=%v: %d ticks wait in bands, want one per sender (%d) at least", e.Now(), c.BandTicks, len(flows))
		}
		armed := int(e.Scheduled()-e.Fired()-e.Canceled()) - c.LiveElsewhere
		if armed <= 0 || c.ArmedInHeap != armed {
			t.Errorf("t=%v: %d armed timers, %d of them tracked in the timer heap", e.Now(), armed, c.ArmedInHeap)
		}
	}
}
