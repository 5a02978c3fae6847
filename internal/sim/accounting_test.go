package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestEventAccountingIsExact holds Canceled and Pending to their comments on
// a run whose only cancellations are TCP's timers — 200 Reno flows, half of
// them with delayed ACKs, through a lossy Selective Discard trunk: at every
// instant Scheduled = Fired + Canceled + live, the live entries being
// Pending less the dead cells a walk of the calendar finds. The census is
// logged (-v): the dead share is what is left of the tombstones that an RTO
// restarted by every ACK used to file.
func TestEventAccountingIsExact(t *testing.T) {
	flows := make([]scenario.TCPFlowSpec, 200)
	for i := range flows {
		flows[i] = scenario.TCPFlowSpec{
			Name:        fmt.Sprintf("f%d", i),
			Exit:        1,
			AccessDelay: sim.Duration(1+i%9) * sim.Millisecond,
			DelayedAcks: i%2 == 1,
		}
	}
	for _, kind := range sim.SchedulerKinds() {
		n, err := scenario.BuildTCP(scenario.TCPConfig{
			Routers:       2,
			TrunkRateBPS:  100e6,
			TrunkLossRate: 0.005,
			Disc: func() ip.Discipline {
				return ip.NewPhantomDiscipline(ip.SelectiveDiscard, core.Config{})
			},
			Flows:     flows,
			Scheduler: kind,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := n.Engine
		for _, d := range []sim.Duration{300 * sim.Millisecond, 450 * sim.Millisecond, 750 * sim.Millisecond} {
			n.Run(d)
			entries, live := sim.CalendarCensus(e)
			t.Logf("%s t=%v: scheduled %d fired %d canceled %d, calendar %d entries of which %d live",
				kind, e.Now(), e.Scheduled(), e.Fired(), e.Canceled(), entries, live)
			if entries != e.Pending() {
				t.Errorf("%s t=%v: Pending() = %d, the calendar holds %d entries", kind, e.Now(), e.Pending(), entries)
			}
			if got := e.Fired() + e.Canceled() + uint64(live); got != e.Scheduled() {
				t.Errorf("%s t=%v: fired %d + canceled %d + live %d = %d, Scheduled() = %d",
					kind, e.Now(), e.Fired(), e.Canceled(), live, got, e.Scheduled())
			}
			if e.Canceled() == 0 || entries == live {
				t.Errorf("%s t=%v: canceled %d, %d dead cells: the run exercises no timer", kind, e.Now(), e.Canceled(), entries-live)
			}
		}
		n.Release()
	}
}
