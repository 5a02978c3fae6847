package scenario

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/workload"
)

// diamondConfig is a 4-node diamond: 0–1, 0–2, 1–3, 2–3, with one session
// per side and one session whose BFS route picks the first-declared side.
func diamondConfig() GraphConfig {
	stop := sim.Time(200 * sim.Millisecond)
	return GraphConfig{
		Nodes: 4,
		Edges: []GraphEdge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}},
		Alg:   switchalg.NewPhantom(core.Config{}),
		Sessions: []GraphSessionSpec{
			{Name: "top", Src: 0, Dst: 1, Pattern: workload.Window{Stop: stop}},
			{Name: "bot", Src: 2, Dst: 3, Pattern: workload.Window{Stop: stop}},
			{Name: "across", Src: 0, Dst: 3, Pattern: workload.Window{Stop: stop}},
			{Name: "back", Src: 3, Dst: 0, Pattern: workload.Window{Stop: stop}},
		},
	}
}

func TestGraphBFSRoutesDeterministic(t *testing.T) {
	n, err := BuildGraph(diamondConfig())
	if err != nil {
		t.Fatal(err)
	}
	// "across" must take the first-declared two-hop route 0→1→3.
	want := [][]int{{0, 1}, {2, 3}, {0, 1, 3}, {3, 1, 0}}
	for i, p := range n.Paths {
		if fmt.Sprint(p) != fmt.Sprint(want[i]) {
			t.Errorf("session %d path = %v, want %v", i, p, want[i])
		}
	}
	// Directed-link paths match: edge 0 is 0–1 (dir 0 = 0→1, dir 1 = 1→0).
	if fmt.Sprint(n.LinkPaths[0]) != "[0]" || fmt.Sprint(n.LinkPaths[2]) != "[0 4]" {
		t.Errorf("link paths = %v", n.LinkPaths)
	}
	// "back" runs against the declared edge directions: 3→1 is edge 2 dir 1
	// (link 5), 1→0 is edge 0 dir 1 (link 1).
	if fmt.Sprint(n.LinkPaths[3]) != "[5 1]" {
		t.Errorf("reverse-direction link path = %v", n.LinkPaths[3])
	}
}

func TestGraphConservationAndDelivery(t *testing.T) {
	n, err := BuildGraph(diamondConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.Run(400 * sim.Millisecond) // 200ms active + 200ms drain

	for i, src := range n.Sources {
		sent := src.CellsSent()
		data := n.Dests[i].DataCells()
		rm := n.Dests[i].RMCells()
		if sent == 0 {
			t.Fatalf("session %d sent nothing", i)
		}
		if data+rm != sent {
			t.Errorf("session %d: sent %d ≠ %d data + %d RM", i, sent, data, rm)
		}
		if back := src.BackwardRMsSeen(); back != rm {
			t.Errorf("session %d: %d RM turned around but %d returned", i, rm, back)
		}
	}
}

func TestGraphSharedBottleneckFairness(t *testing.T) {
	// Two greedy sessions share directed link 0→1; max-min splits it
	// evenly and Phantom should get both close to the oracle ratio.
	cfg := GraphConfig{
		Nodes: 3,
		Edges: []GraphEdge{{U: 0, V: 1}, {U: 1, V: 2}},
		Alg:   switchalg.NewPhantom(core.Config{UtilizationFactor: 5}),
		Sessions: []GraphSessionSpec{
			{Name: "short", Src: 0, Dst: 1, Pattern: workload.Greedy{}},
			{Name: "long", Src: 0, Dst: 2, Pattern: workload.Greedy{}},
		},
	}
	n, err := BuildGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(400 * sim.Millisecond)

	oracle, err := n.MaxMinOracle()
	if err != nil {
		t.Fatal(err)
	}
	half := atm.CPS(150e6) / 2
	for i, r := range oracle {
		if math.Abs(r-half) > 1 {
			t.Fatalf("oracle[%d] = %v, want %v", i, r, half)
		}
	}
	end := n.Engine.Now()
	from := end - sim.Time(100*sim.Millisecond)
	var got []float64
	for i := range cfg.Sessions {
		got = append(got, n.Goodput[i].TimeAvg(from, end))
	}
	if idx := metrics.JainIndex(got); idx < 0.95 {
		t.Errorf("fairness across shared bottleneck = %v (goodputs %v)", idx, got)
	}
	for i, g := range got {
		if g > oracle[i]*1.10 {
			t.Errorf("session %d goodput %v exceeds oracle %v", i, g, oracle[i])
		}
		if g < oracle[i]*0.5 {
			t.Errorf("session %d starved: %v vs oracle %v", i, g, oracle[i])
		}
	}
}

func TestGraphDeterminism(t *testing.T) {
	run := func() string {
		n, err := BuildGraph(diamondConfig())
		if err != nil {
			t.Fatal(err)
		}
		n.Run(300 * sim.Millisecond)
		out := ""
		for i := range n.Dests {
			out += fmt.Sprintf("%d/%d ", n.Dests[i].DataCells(), n.Sources[i].CellsSent())
		}
		return out + fmt.Sprint(n.Engine.Fired())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %q vs %q", a, b)
	}
}

func TestGraphTransientEvents(t *testing.T) {
	cfg := GraphConfig{
		Nodes: 2,
		Edges: []GraphEdge{{U: 0, V: 1}},
		Alg:   switchalg.NewPhantom(core.Config{UtilizationFactor: 5}),
		Sessions: []GraphSessionSpec{
			{Name: "a", Src: 0, Dst: 1, Pattern: workload.Greedy{}},
		},
		Events: []TransientEvent{
			{At: 100 * sim.Millisecond, Kind: TransientRate, Index: 0, Value: 50e6},
		},
	}
	n, err := BuildGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(300 * sim.Millisecond)
	// After the cut the source must have come down to ≈ the new line rate
	// regime: final ACR well below the original 150 Mb/s capacity.
	if acr := n.ACR[0].Last(); acr > atm.CPS(80e6) {
		t.Errorf("ACR %.0f did not react to the rate cut", acr)
	}
	// And the link keeps delivering (no stall at the old rate boundary).
	if n.Dests[0].DataCells() == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestGraphBuildErrors(t *testing.T) {
	base := diamondConfig()
	cases := []struct {
		name string
		mut  func(*GraphConfig)
	}{
		{"no edges", func(c *GraphConfig) { c.Edges = nil }},
		{"no sessions", func(c *GraphConfig) { c.Sessions = nil }},
		{"bad edge node", func(c *GraphConfig) { c.Edges[0].V = 9 }},
		{"self loop", func(c *GraphConfig) { c.Edges[0].V = c.Edges[0].U }},
		{"bad session node", func(c *GraphConfig) { c.Sessions[0].Dst = -1 }},
		{"same endpoints", func(c *GraphConfig) { c.Sessions[0].Dst = c.Sessions[0].Src }},
		{"unreachable", func(c *GraphConfig) {
			c.Nodes = 5 // node 4 has no edges
			c.Sessions[0].Dst = 4
		}},
		{"bad event index", func(c *GraphConfig) {
			c.Events = []TransientEvent{{Kind: TransientRate, Index: 9, Value: 1e6}}
		}},
		{"bad event kind", func(c *GraphConfig) {
			c.Events = []TransientEvent{{Kind: "flip", Index: 0, Value: 1}}
		}},
	}
	for _, c := range cases {
		cfg := diamondConfig()
		_ = base
		c.mut(&cfg)
		if _, err := BuildGraph(cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
