package scenario

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/tcp"
	"repro/internal/telemetry"
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
	// TCP flows run on one engine: a lowered router chain or cloud asked
	// for shards is refused at build.
	flows := []TCPFlowSpec{{Name: "f", Entry: 0, Exit: 1}}
	routed := (&TCPConfig{Routers: 2, Flows: flows}).lower()
	cloud := (&InteropConfig{Flows: flows}).lower()
	for _, g := range []GraphConfig{routed, cloud} {
		g.Shards = 2
		if _, err := BuildGraph(g); err == nil || !strings.Contains(err.Error(), "one engine") {
			t.Errorf("sharded TCP graph: err %v, want a refusal", err)
		}
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

// TestTCPScenarioDeterminism runs one network twice and wants the same
// deliveries, drops and telemetry snapshot, tcp.cwnd_bytes_peak included.
func TestTCPScenarioDeterminism(t *testing.T) {
	run := func() ([]float64, map[string]uint64) {
		reg := telemetry.New()
		n, err := BuildTCP(TCPConfig{
			Routers: 2,
			Flows: []TCPFlowSpec{
				{Name: "a", Entry: 0, Exit: 1, AccessDelay: sim.Millisecond},
				{Name: "b", Entry: 0, Exit: 1, AccessDelay: 3 * sim.Millisecond},
			},
			Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Run(2 * sim.Second)
		return []float64{
			float64(n.Receivers[0].DeliveredBytes()),
			float64(n.Receivers[1].DeliveredBytes()),
			float64(n.TrunkDrops(0)),
		}, reg.Snapshot()
	}
	a, snapA := run()
	b, snapB := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %v vs %v", i, a, b)
		}
	}
	if snapA["tcp.cwnd_bytes_peak"] == 0 {
		t.Fatalf("no tcp.cwnd_bytes_peak in the snapshot: %v", snapA)
	}
	if !maps.Equal(snapA, snapB) {
		t.Fatalf("telemetry diverged:\n%v\nvs\n%v", snapA, snapB)
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
	jumbo := tcp.DefaultSenderParams()
	jumbo.MSS = 1460
	for _, tc := range []struct {
		name string
		long *tcp.SenderParams
		// want is each flow's payload share: the max-min split of the wire,
		// less the IP header on every segment of the flow's own size.
		want []float64
	}{
		// Both share trunk 0: payload capacity ≈ 9.275 Mb/s → ≈4.64 each;
		// the long flow is not further restricted on trunk 1.
		{"default MSS", nil, []float64{10e6 * 512.0 / 552.0 / 2, 10e6 * 512.0 / 552.0 / 2}},
		// The wire splits the same way; the long flow's 1460-byte segments
		// carry a larger payload share of its half.
		{"MSS 1460", &jumbo, []float64{10e6 / 2 * 1460.0 / 1500.0, 10e6 / 2 * 512.0 / 552.0}},
	} {
		n, err := BuildTCP(TCPConfig{
			Routers: 3,
			Flows: []TCPFlowSpec{
				{Name: "long", Entry: 0, Exit: 2, Params: tc.long},
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
		for i, r := range rates {
			if want := tc.want[i]; r < want*0.99 || r > want*1.01 {
				t.Errorf("%s: oracle[%d] = %v, want ≈%v", tc.name, i, r, want)
			}
		}
		n.Release()
	}
}

// TestSeriesStorageFollowsPoints holds every event-driven series (no
// clock) to at most twice the points it recorded (or the smallest capacity
// class, 16 points), and every sampled series to a values column of exactly
// the sampler's hint on one clock per shard. The event-driven series are
// the ACR series of a many-session ATM network on two shards, each
// recording far fewer rate changes than the sampler's cadence would, and
// the trunks' MACR series of a tcp_timers-shaped network: many Reno flows
// under Selective Discard. The sampled series of the latter hold at most
// 8 B per point at the hint, plus one time column per shard.
func TestSeriesStorageFollowsPoints(t *testing.T) {
	const (
		flows, routers = 1000, 4
		dur            = 3 * sim.Second
		minClass       = 16
		valueBytes     = 8 // one float64 per sampled point
	)
	var recorded, held, atHint int
	eventDriven := func(groups ...[]*metrics.Series) {
		for _, group := range groups {
			for _, s := range group {
				recorded, held = recorded+len(s.Points()), held+cap(s.Points())
				if c := cap(s.Points()); c > max(minClass, 2*len(s.Points())) {
					t.Errorf("%s holds %d slots for %d points", s.Name, c, len(s.Points()))
				}
			}
		}
	}
	// sampled checks each series' values column and returns the bytes the
	// series and their clocks hold, and how many points the hint sizes.
	sampled := func(hint, shards int, groups ...[]*metrics.Series) (bytes, points int) {
		clocks := map[*metrics.Clock]bool{}
		for _, group := range groups {
			for _, s := range group {
				b, c := s.Held()
				if c == nil || b != valueBytes*hint || len(s.Points()) > hint {
					t.Errorf("%s holds %d B for %d points on clock %p, want the hint's %d values on a clock",
						s.Name, b, len(s.Points()), c, hint)
				}
				clocks[c] = true
				bytes, points = bytes+b, points+hint
			}
		}
		if len(clocks) != shards {
			t.Errorf("sampled series share %d clocks, want one per shard (%d)", len(clocks), shards)
		}
		for c := range clocks {
			if c != nil {
				bytes += c.Held()
			}
		}
		return bytes, points
	}
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}, {1, 3}, {0, 3}}

	const sessions, atmDur = 200, sim.Second
	acfg := ATMConfig{Switches: routers, Alg: switchalg.NewPhantom(core.Config{}), Duration: atmDur, Shards: 2}
	for i := 0; i < sessions; i++ {
		p := pairs[i%len(pairs)]
		acfg.Sessions = append(acfg.Sessions, ATMSessionSpec{Name: fmt.Sprintf("s%d", i), Entry: p[0], Exit: p[1]})
	}
	a, err := BuildATM(acfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	if a.Shards() != 2 {
		t.Fatalf("ATM chain runs on %d shards, want 2", a.Shards())
	}
	a.Run(atmDur)
	ahint := samplesHint(atmDur, a.GraphNet.Config.SampleEvery)
	acrPoints := 0
	for _, s := range a.ACR {
		acrPoints += len(s.Points())
	}
	if acrPoints == 0 || acrPoints > sessions*ahint/2 {
		t.Fatalf("ACR series recorded %d points against %d at the hint: not the shape under test", acrPoints, sessions*ahint)
	}
	eventDriven(a.ACR)
	sampled(ahint, a.Shards(), a.Goodput, a.TrunkQueue, a.FairShare)
	atHint += ahint * len(a.ACR)

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
	eventDriven(n.MACR)
	bytes, points := sampled(hint, n.Shards(), n.Goodput, n.TrunkQueue)
	if bytes > valueBytes*(points+n.Shards()*hint) {
		t.Errorf("%d flows' sampled series and clocks hold %d B for %d points at the hint: more than %d B a point plus one clock per shard",
			flows, bytes, points, valueBytes)
	}
	atHint += hint * len(n.MACR)
	t.Logf("event-driven series: %d points in %d slots (%d at the sampler's hint)", recorded, held, atHint)
	t.Logf("sampled series: %d B for %d points at the hint on %d clock(s)", bytes, points, n.Shards())
}
