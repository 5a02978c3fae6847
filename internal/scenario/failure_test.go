package scenario

import (
	"math"
	"testing"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/workload"
)

// Failure injection (DESIGN.md §6): the control loop must survive a noisy
// line that destroys cells — including RM cells, whose loss delays rate
// feedback — without deadlock or collapse.

func TestPhantomSurvivesCellLoss(t *testing.T) {
	cfg := twoGreedyConfig()
	lowered := cfg.Lower()
	lowered.TrunkLossRate = 0.01 // 1% of all trunk cells destroyed
	n, err := buildChain(lowered, "switches")
	if err != nil {
		t.Fatal(err)
	}
	n.Run(400 * sim.Millisecond)

	target := atm.CPS(150e6) * core.DefaultTargetUtilization
	_, wantRate := metrics.PhantomEquilibrium(target, 2, 5)
	for i, s := range n.ACR {
		got := s.Last()
		if math.Abs(got-wantRate) > wantRate*0.25 {
			t.Errorf("ACR[%d] = %.0f under 1%% loss, want ≈%.0f", i, got, wantRate)
		}
	}
	// Fairness survives too.
	from := n.Engine.Now() - sim.Time(100*sim.Millisecond)
	g := []float64{
		n.Goodput[0].TimeAvg(from, n.Engine.Now()),
		n.Goodput[1].TimeAvg(from, n.Engine.Now()),
	}
	if idx := metrics.JainIndex(g); idx < 0.95 {
		t.Errorf("fairness under loss = %v", idx)
	}
	// And cells were really being destroyed.
	if n.links[0].Lost() == 0 {
		t.Fatal("loss injection inert")
	}
}

func TestPhantomSurvivesHeavyRMLoss(t *testing.T) {
	// 10% loss is brutal (every 10th cell, including RM cells, vanishes).
	// The loop must stay live: sources keep non-trivial rates and the
	// queue stays bounded. Exact equilibrium is not expected.
	cfg := twoGreedyConfig()
	lowered := cfg.Lower()
	lowered.TrunkLossRate = 0.10
	n, err := buildChain(lowered, "switches")
	if err != nil {
		t.Fatal(err)
	}
	n.Run(400 * sim.Millisecond)
	for i, s := range n.ACR {
		if s.Last() < 1000 {
			t.Errorf("ACR[%d] collapsed to %v under heavy loss", i, s.Last())
		}
	}
	if n.PeakTrunkQueue[0] > 50000 {
		t.Errorf("queue exploded under loss: %d cells", n.PeakTrunkQueue[0])
	}
}

func TestTCPSurvivesPacketLoss(t *testing.T) {
	n, err := BuildTCP(TCPConfig{
		Routers:       2,
		TrunkLossRate: 0.02, // 2% random loss both directions
		Flows: []TCPFlowSpec{
			{Name: "a", Entry: 0, Exit: 1, AccessDelay: sim.Millisecond},
			{Name: "b", Entry: 0, Exit: 1, AccessDelay: 3 * sim.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(10 * sim.Second)
	for i := range n.Senders {
		if n.MeanGoodputBPS(i) < 0.2e6 {
			t.Errorf("flow %d goodput %.2f Mb/s under 2%% loss — starved", i, n.MeanGoodputBPS(i)/1e6)
		}
	}
	if n.Senders[0].Retransmits() == 0 {
		t.Fatal("loss injection inert (no retransmissions)")
	}
}

func TestSessionChurnStorm(t *testing.T) {
	// 12 sessions with short staggered overlapping lifetimes: the control
	// loop must track the churn without the queue running away and with
	// rates re-settling each epoch.
	const d = 600 * sim.Millisecond
	var specs []ATMSessionSpec
	for i := 0; i < 12; i++ {
		start := sim.Time(i) * sim.Time(d/16)
		specs = append(specs, ATMSessionSpec{
			Name:  string(rune('a' + i)),
			Entry: 0, Exit: 1,
			Pattern: workload.Window{Start: start, Stop: start + sim.Time(d/4)},
		})
	}
	n, err := BuildATM(ATMConfig{
		Switches: 2,
		Alg:      switchalg.NewPhantom(core.Config{}),
		Sessions: specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(d)
	if n.PeakTrunkQueue[0] > 20000 {
		t.Errorf("queue ran away under churn: %d cells", n.PeakTrunkQueue[0])
	}
	// The trunk must have carried real traffic throughout.
	if n.TrunkUtilization(0) < 0.3 {
		t.Errorf("utilization under churn = %v", n.TrunkUtilization(0))
	}
}

func TestMeasurementStarvation(t *testing.T) {
	// A port that never transmits (no sessions routed) must drift its MACR
	// to the full target — the phantom owns an idle link — without any
	// division-by-zero or NaN from empty measurement intervals.
	e := sim.NewEngine()
	pc := core.MustPortControl(core.Config{Capacity: 1000}, 0)
	pc.Attach(e)
	e.RunUntil(sim.Time(2 * sim.Second))
	target := 1000 * core.DefaultTargetUtilization
	if math.IsNaN(pc.MACR()) {
		t.Fatal("MACR is NaN")
	}
	if pc.MACR() < target*0.95 {
		t.Errorf("idle port MACR = %v, want ≈%v", pc.MACR(), target)
	}
}
