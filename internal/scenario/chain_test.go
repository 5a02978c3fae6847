package scenario

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/trace"
	"repro/internal/workload"
)

// chainFingerprint folds every data-plane observable the trunk view exposes
// — per-session cell counts and final ACR bits, per-trunk series labels and
// lengths, utilisation and fair-share bits, peak and end queue — plus a
// hash of the flight recorder's (time, component, kind) sequence.
func chainFingerprint(n *ATMNet, tr *trace.Tracer) string {
	var b strings.Builder
	for i, d := range n.Dests {
		fmt.Fprintf(&b, "s%d=%d/%d/%d/%d/%x ", i, n.Sources[i].CellsSent(), d.DataCells(), d.RMCells(),
			n.Sources[i].BackwardRMsSeen(), math.Float64bits(n.ACR[i].Last()))
	}
	for k := range n.TrunkQueue {
		fs := "-"
		if s := n.FairShare[k]; s != nil {
			fs = fmt.Sprintf("%s:%x", s.Name, math.Float64bits(s.Last()))
		}
		fmt.Fprintf(&b, "t%d=%s:%d/%x/%s/%d/%d ", k, n.TrunkQueue[k].Name, len(n.TrunkQueue[k].Points()),
			math.Float64bits(n.TrunkUtilization(k)), fs, n.PeakTrunkQueue[k], n.LinkQueueLen(2*k))
	}
	h := fnv.New64a()
	for _, ev := range tr.Events() {
		fmt.Fprintf(h, "%d %s %s\n", ev.T, ev.Component, ev.Kind)
	}
	fmt.Fprintf(&b, "trace=%d/%x", tr.Seen(), h.Sum64())
	return b.String()
}

// TestChainEventIdentity pins what BuildATM schedules and delivers to
// constants recorded from the dedicated chain builder this package had
// before a chain became BuildGraph(cfg.Lower()): heterogeneous trunk rates,
// one rate and one loss transient, multi-hop sessions, at 1 and 2 shards.
// The fired-event count moving means the lowering wires (or names, or
// partitions) the chain differently from how every golden was recorded.
func TestChainEventIdentity(t *testing.T) {
	const (
		wantData = "s0=1163/1059/34/34/40ccbaa195c696f7 s1=1170/1066/34/34/40ccbaa195c696f7 " +
			"s2=3516/3392/109/109/411597b656f1826a s3=4985/4830/155/155/410e57bef739c03c " +
			"t0=queue[F0]:30/3fdc2c56b7fc2b78/fairshare[F0]:40f73cbc1585d8cd/81/6 " +
			"t1=queue[F1]:30/3fe41254072fe6c0/fairshare[F1]:40a5e41861fb4d1d/304/113 " +
			"t2=queue[F2]:30/3fcabcedeae2f0b5/fairshare[F2]:410055db7ebda0ed/1/0 " +
			"t3=queue[F3]:30/3fd3dd11be6e6539/fairshare[F3]:40f3841b77853822/1/0 " +
			"t4=queue[F4]:30/3fe2543032b5d641/fairshare[F4]:40f52cc36f065d3c/161/0 " +
			"trace=110/47b7dd0a82731aa"
		wantOracle = "[0x1.cca4873ecade3p+15 0x1.cca4873ecade3p+15 0x1.1fe6d4873ecaep+18 0x1.1fe6d4873ecaep+18]"
	)
	wantFired := map[int]uint64{1: 91331, 2: 91361}
	for _, shards := range []int{1, 2} {
		tr := trace.New(1 << 16)
		n, err := BuildATM(ATMConfig{
			Switches:      6,
			TrunkRatesBPS: []float64{0, 50e6, 0, 100e6, 0},
			TrunkDelay:    20 * sim.Microsecond,
			Alg:           switchalg.NewPhantom(core.Config{UtilizationFactor: 5}),
			Duration:      30 * sim.Millisecond,
			Events: []TransientEvent{
				{At: 10 * sim.Millisecond, Kind: TransientRate, Index: 1, Value: 25e6},
				{At: 15 * sim.Millisecond, Kind: TransientLoss, Index: 3, Value: 0.02},
			},
			Trace: tr,
			Sessions: []ATMSessionSpec{
				{Name: "long", Entry: 0, Exit: 5, Pattern: workload.Greedy{}},
				{Name: "mid", Entry: 1, Exit: 4, Pattern: workload.Greedy{}},
				{Name: "head", Entry: 0, Exit: 1, Pattern: workload.PeriodicOnOff{On: 4 * sim.Millisecond, Off: 3 * sim.Millisecond}},
				{Name: "tail", Entry: 4, Exit: 5, Pattern: workload.Window{Start: sim.Time(5 * sim.Millisecond), Stop: sim.Time(25 * sim.Millisecond)}},
			},
			Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Run(30 * sim.Millisecond)
		if got := n.FiredTotal(); got != wantFired[shards] {
			t.Errorf("shards=%d: fired %d events, the chain builder fired %d", shards, got, wantFired[shards])
		}
		if got := chainFingerprint(n, tr); got != wantData {
			t.Errorf("shards=%d: data fingerprint moved:\n got %s\nwant %s", shards, got, wantData)
		}
		oracle, err := n.MaxMinOracle()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", oracle); got != wantOracle {
			t.Errorf("shards=%d: oracle %s, want %s", shards, got, wantOracle)
		}
	}
}

// TestChainIdleTrunk: a trunk no session crosses is a plain FIFO with no
// recorded series (the graph rule), every view accessor tolerates that, and
// the sessions deliver exactly what they did when the chain builder hosted
// an idle algorithm instance there (which only ticked: 51439 events fired
// then, one measurement-interval tick per millisecond fewer now).
func TestChainIdleTrunk(t *testing.T) {
	n, err := BuildATM(ATMConfig{
		Switches: 4,
		Alg:      switchalg.NewPhantom(core.Config{UtilizationFactor: 5}),
		Sessions: []ATMSessionSpec{
			{Name: "a", Entry: 0, Exit: 1, Pattern: workload.Greedy{}},
			{Name: "b", Entry: 0, Exit: 2, Pattern: workload.Greedy{}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(20 * sim.Millisecond)

	var got string
	for i, d := range n.Dests {
		got += fmt.Sprintf("s%d=%d/%d/%d/%d ", i, n.Sources[i].CellsSent(), d.DataCells(), d.RMCells(), n.Sources[i].BackwardRMsSeen())
	}
	if want := "s0=3125/3026/97/97 s1=3123/3023/97/97 "; got != want {
		t.Errorf("delivered cells moved:\n got %s\nwant %s", got, want)
	}
	if got, want := n.FiredTotal(), uint64(51439-20); got != want {
		t.Errorf("fired %d events, want %d", got, want)
	}

	const idle = 2
	if n.TrunkQueue[idle] != nil || n.FairShare[idle] != nil {
		t.Errorf("idle trunk recorded series %v / %v", n.TrunkQueue[idle], n.FairShare[idle])
	}
	if n.PeakTrunkQueue[idle] != 0 || n.LinkQueueLen(2*idle) != 0 || n.TrunkUtilization(idle) != 0 {
		t.Errorf("idle trunk carried traffic: peak %d, queue %d, utilization %v",
			n.PeakTrunkQueue[idle], n.LinkQueueLen(2*idle), n.TrunkUtilization(idle))
	}
	if c := n.LinkCapacityCPS(2 * idle); c != n.LinkCapacityCPS(0) {
		t.Errorf("idle trunk capacity %v, want %v", c, n.LinkCapacityCPS(0))
	}
	if n.TrunkQueue[0] == nil || n.FairShare[1] == nil || n.TrunkUtilization(0) <= 0 || n.PeakTrunkQueue[0] == 0 {
		t.Error("used trunks lost their series")
	}
	if _, err := n.MaxMinOracle(); err != nil {
		t.Error(err)
	}
	if _, ok := n.ShardStats(); ok || n.Shards() != 1 {
		t.Error("unsharded run reports shard stats")
	}
	n.Release()
}

// TestChainShapedPartition pins the auto-partition rule: an edge list that
// is exactly (k, k+1) in order with one delay gets shard.Linear's balanced
// contiguous ranges; anything else gets shard.Auto.
func TestChainShapedPartition(t *testing.T) {
	chain := func(nodes int) GraphConfig {
		cfg := GraphConfig{Nodes: nodes, Shards: 3, Sessions: []GraphSessionSpec{
			{Name: "a", Src: 0, Dst: nodes - 1, Pattern: workload.Greedy{}},
		}}
		for k := 0; k+1 < nodes; k++ {
			cfg.Edges = append(cfg.Edges, GraphEdge{U: k, V: k + 1})
		}
		return cfg
	}
	partition := func(cfg GraphConfig) string {
		n, err := BuildGraph(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Release()
		return fmt.Sprint(n.plan.part.Node)
	}
	// 7 nodes on 3 shards is one of the sizes where Auto and Linear differ.
	linear := fmt.Sprint(shard.Linear(7, 3).Node)
	if got := partition(chain(7)); got != linear {
		t.Errorf("chain partitioned %s, want shard.Linear's %s", got, linear)
	}
	for name, mut := range map[string]func(*GraphConfig){
		"reversed edge":  func(c *GraphConfig) { c.Edges[2].U, c.Edges[2].V = c.Edges[2].V, c.Edges[2].U },
		"two delays":     func(c *GraphConfig) { c.Edges[2].Delay = sim.Millisecond },
		"swapped edges":  func(c *GraphConfig) { c.Edges[1], c.Edges[2] = c.Edges[2], c.Edges[1] },
		"one extra edge": func(c *GraphConfig) { c.Edges = append(c.Edges, GraphEdge{U: 0, V: 6}) },
	} {
		cfg := chain(7)
		mut(&cfg)
		if cfg.chainShaped() {
			t.Errorf("%s: still chain-shaped", name)
		}
	}
	// An explicit per-edge delay equal to the default is still one delay.
	cfg := chain(7)
	cfg.Edges[3].Delay = 5 * sim.Microsecond
	if got := partition(cfg); got != linear {
		t.Errorf("explicit default delay partitioned %s, want %s", got, linear)
	}
}
