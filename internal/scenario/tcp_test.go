package scenario

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestBuildTCPValidation(t *testing.T) {
	if _, err := BuildTCP(TCPConfig{Routers: 1}); err == nil {
		t.Error("1 router accepted")
	}
	if _, err := BuildTCP(TCPConfig{Routers: 2}); err == nil {
		t.Error("no flows accepted")
	}
	if _, err := BuildTCP(TCPConfig{
		Routers: 2,
		Flows:   []TCPFlowSpec{{Name: "f", Entry: 0, Exit: 0}},
	}); err == nil {
		t.Error("degenerate path accepted")
	}
}

// A single greedy Reno flow must fill most of the bottleneck.
func TestSingleFlowFillsBottleneck(t *testing.T) {
	n, err := BuildTCP(TCPConfig{
		Routers: 2,
		Flows:   []TCPFlowSpec{{Name: "f0", Entry: 0, Exit: 1, AccessDelay: sim.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(10 * sim.Second)
	// Payload capacity is 512/552·10 Mb/s ≈ 9.28 Mb/s; AIMD with a 60
	// packet buffer sustains well above half of it.
	goodput := n.MeanGoodputBPS(0)
	if goodput < 6e6 {
		t.Fatalf("single-flow goodput = %.2f Mb/s, want > 6", goodput/1e6)
	}
	if n.TrunkUtilization(0) < 0.65 {
		t.Fatalf("utilization = %v", n.TrunkUtilization(0))
	}
	// The flow must have experienced losses (drop-tail) and recovered.
	if n.Senders[0].Retransmits() == 0 {
		t.Fatal("no retransmissions — buffer never filled?")
	}
}

// The Fig. 14 shape at reduced scale: heterogeneous-RTT Reno flows through
// a drop-tail router are unfair; Selective Discard repairs the fairness
// without losing utilization.
func TestSelectiveDiscardRepairsRTTUnfairness(t *testing.T) {
	build := func(disc func() ip.Discipline) *TCPNet {
		n, err := BuildTCP(TCPConfig{
			Routers: 2,
			Disc:    disc,
			Flows: []TCPFlowSpec{
				{Name: "short", Entry: 0, Exit: 1, AccessDelay: 500 * sim.Microsecond},
				{Name: "long", Entry: 0, Exit: 1, AccessDelay: 12 * sim.Millisecond},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Run(20 * sim.Second)
		return n
	}

	dropTail := build(nil)
	discard := build(func() ip.Discipline {
		return ip.NewPhantomDiscipline(ip.SelectiveDiscard, core.Config{})
	})

	ratioDT := metrics.MinMaxRatio([]float64{dropTail.MeanGoodputBPS(0), dropTail.MeanGoodputBPS(1)})
	ratioSD := metrics.MinMaxRatio([]float64{discard.MeanGoodputBPS(0), discard.MeanGoodputBPS(1)})
	t.Logf("drop-tail goodputs: %.2f / %.2f Mb/s (ratio %.2f)",
		dropTail.MeanGoodputBPS(0)/1e6, dropTail.MeanGoodputBPS(1)/1e6, ratioDT)
	t.Logf("selective-discard goodputs: %.2f / %.2f Mb/s (ratio %.2f)",
		discard.MeanGoodputBPS(0)/1e6, discard.MeanGoodputBPS(1)/1e6, ratioSD)

	if ratioDT > 0.75 {
		t.Errorf("drop-tail unexpectedly fair: ratio %.2f", ratioDT)
	}
	if ratioSD < ratioDT+0.1 {
		t.Errorf("Selective Discard did not improve fairness: %.2f vs %.2f", ratioSD, ratioDT)
	}
	// Utilization must remain healthy under Selective Discard.
	if util := discard.TrunkUtilization(0); util < 0.55 {
		t.Errorf("Selective Discard utilization = %.2f", util)
	}
}

func TestTCPScenarioDeterminism(t *testing.T) {
	run := func() []float64 {
		n, err := BuildTCP(TCPConfig{
			Routers: 2,
			Flows: []TCPFlowSpec{
				{Name: "a", Entry: 0, Exit: 1, AccessDelay: sim.Millisecond},
				{Name: "b", Entry: 0, Exit: 1, AccessDelay: 3 * sim.Millisecond},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Run(2 * sim.Second)
		return []float64{
			float64(n.Receivers[0].DeliveredBytes()),
			float64(n.Receivers[1].DeliveredBytes()),
			n.Cwnd[0].Last(), n.Cwnd[1].Last(),
			float64(n.TrunkDrops(0)),
		}
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestQuenchDeliveryPath(t *testing.T) {
	// A Selective Quench network must actually deliver quenches to the
	// right sender.
	n, err := BuildTCP(TCPConfig{
		Routers: 2,
		Disc: func() ip.Discipline {
			return ip.NewPhantomDiscipline(ip.SelectiveQuench, core.Config{
				// Tiny initial MACR: everything exceeds immediately.
				InitialMACR: 1,
			})
		},
		Flows: []TCPFlowSpec{{Name: "f", Entry: 0, Exit: 1, AccessDelay: sim.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(2 * sim.Second)
	if n.Senders[0].Quenches() == 0 {
		t.Fatal("no quench delivered")
	}
}

func TestTCPMaxMinOracle(t *testing.T) {
	n, err := BuildTCP(TCPConfig{
		Routers: 3,
		Flows: []TCPFlowSpec{
			{Name: "long", Entry: 0, Exit: 2},
			{Name: "short", Entry: 0, Exit: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rates, err := n.MaxMinOracle()
	if err != nil {
		t.Fatal(err)
	}
	// Both share trunk 0: payload capacity ≈ 9.275 Mb/s → ≈4.64 each; the
	// long flow is not further restricted on trunk 1.
	want := 10e6 * 512.0 / 552.0 / 2
	for i, r := range rates {
		if r < want*0.99 || r > want*1.01 {
			t.Fatalf("oracle[%d] = %v, want ≈%v", i, r, want)
		}
	}
}

// TestSeriesStorageFollowsPoints runs a tcp_timers-shaped network — many
// Reno flows under Selective Discard, each recording far fewer cwnd and CR
// changes than the sampler's cadence would — and holds every event-driven
// series to at most twice the points it recorded (or the smallest capacity
// class, 16 points), while the sampled series keep exactly their hint.
func TestSeriesStorageFollowsPoints(t *testing.T) {
	const (
		flows, routers = 1000, 4
		dur            = 3 * sim.Second
		minClass       = 16
	)
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}, {1, 3}, {0, 3}}
	cfg := TCPConfig{
		Routers:      routers,
		TrunkRateBPS: 155e6,
		Duration:     dur,
		Disc: func() ip.Discipline {
			return ip.NewPhantomDiscipline(ip.SelectiveDiscard, core.Config{UtilizationFactor: 5})
		},
	}
	for i := 0; i < flows; i++ {
		p := pairs[i%len(pairs)]
		cfg.Flows = append(cfg.Flows, TCPFlowSpec{
			Name: fmt.Sprintf("f%d", i), Entry: p[0], Exit: p[1],
			AccessDelay: sim.Duration(1+i/len(pairs)%20) * sim.Millisecond,
			DelayedAcks: i%2 == 0,
		})
	}
	n, err := BuildTCP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Release()
	n.Run(dur)

	hint := samplesHint(dur, n.Config.SampleEvery)
	var recorded, held int
	for _, group := range [][]*metrics.Series{n.Cwnd, n.FlowRate, n.MACR} {
		for _, s := range group {
			recorded, held = recorded+len(s.Points()), held+cap(s.Points())
			if c := cap(s.Points()); c > max(minClass, 2*len(s.Points())) {
				t.Errorf("%s holds %d slots for %d points", s.Name, c, len(s.Points()))
			}
		}
	}
	cwndPoints := 0
	for _, s := range n.Cwnd {
		cwndPoints += len(s.Points())
	}
	if cwndPoints == 0 || cwndPoints > flows*hint/2 {
		t.Fatalf("cwnd series recorded %d points against %d at the hint: not the shape under test", cwndPoints, flows*hint)
	}
	for _, group := range [][]*metrics.Series{n.Goodput, n.TrunkQueue} {
		for _, s := range group {
			if c := cap(s.Points()); c != hint || len(s.Points()) > hint {
				t.Errorf("%s holds %d slots for %d points, want exactly the hint %d", s.Name, c, len(s.Points()), hint)
			}
		}
	}
	t.Logf("event-driven series: %d points in %d slots (%d at the sampler's hint)",
		recorded, held, hint*(2*flows+len(n.MACR)))
}
