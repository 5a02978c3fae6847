// Package scenario assembles complete experiment topologies — end systems,
// access links, switches or routers, trunks — and records the time series
// every figure of the paper is drawn from. Networks of any shape are wired
// by one builder, BuildGraph. The linear ("parking lot") networks that cover
// all of the paper's ATM configurations — a single shared link is the
// two-switch special case, multi-bottleneck fairness (the beat-down
// experiments) uses longer chains — are described by ATMConfig, the TCP
// router chains by TCPConfig and the TCP-over-ATM cloud by InteropConfig;
// each is lowered onto BuildGraph and read through a thin view.
package scenario

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ATMSessionSpec declares one ABR session over the linear network: it
// enters at switch Entry and exits at switch Exit (Entry < Exit), so it
// crosses trunks Entry..Exit−1. Its end system runs the paper's source
// parameters.
type ATMSessionSpec struct {
	Name    string
	Entry   int
	Exit    int
	Pattern workload.Pattern
}

// ATMConfig describes a linear ATM network of Switches switches chained by
// Switches−1 trunks. It is a way to describe a network, not a second way to
// build one: BuildATM builds the GraphConfig that Lower turns it into. It
// holds only what some experiment sets; the rest (the 150 Mb/s trunk rate,
// the 1 ms sampling period, no loss, no transients, the automatic shard
// partition) is GraphConfig's default, and a test that needs one of those
// knobs sets it on the lowered GraphConfig.
type ATMConfig struct {
	Switches int
	// TrunkRatesBPS optionally gives each trunk its own rate (length must
	// be Switches−1), enabling heterogeneous-capacity configurations like
	// the ATM Forum's generic fairness topologies. Entries of 0 fall back
	// to the default 150 Mb/s.
	TrunkRatesBPS []float64
	// TrunkDelay is the per-trunk propagation delay (default 5 µs, the
	// paper's "negligible RTT" regime; WAN scenarios raise it).
	TrunkDelay sim.Duration
	// AccessRateBPS is the end-system access rate (default 150 Mb/s).
	AccessRateBPS float64
	// AccessDelay is the access-link propagation delay (default 1 µs).
	AccessDelay sim.Duration
	// Alg builds the rate-control algorithm instance for each forward
	// output port; nil runs plain FIFO switches.
	Alg switchalg.Factory
	// Duration, when set, is the planned run length. It is a sizing hint
	// only — Run is still driven by the caller — letting the recorded
	// series pre-allocate duration/SampleEvery points instead of
	// append-doubling their way up during the run.
	Duration sim.Duration
	// Trace, if non-nil, records rate changes, drops and fair-share ticks.
	Trace *trace.Tracer
	// Telemetry, if non-nil, receives the scenario's counters: every link,
	// switch, source and algorithm registers its class-level handles here,
	// and Run folds the engine's event statistics in when it returns.
	Telemetry *telemetry.Registry
	Sessions  []ATMSessionSpec
	// Shards splits the chain across N engines synchronized by the
	// conservative epoch-barrier protocol (DESIGN.md §14); 0 or 1 runs the
	// classic single engine. Auto-partitioning is contiguous balanced
	// switch ranges, clamped to the switch count. A sharded run is
	// deterministic at fixed N; metrics match the single-engine run on the
	// golden suite but the (time, seq) interleaving is N-dependent.
	Shards int
}

// Lower renders the chain as the graph it is: switch i is node i, trunk k
// is edge k joining nodes k and k+1, and a session is routed Entry→Exit.
// The one default the two descriptions disagree on, the access rate, is
// made explicit. Switches must be at least 2 and TrunkRatesBPS, if set,
// Switches−1 long (BuildATM checks both).
func (c *ATMConfig) Lower() GraphConfig {
	g := GraphConfig{
		Nodes:         c.Switches,
		Edges:         chainEdges(c.Switches),
		TrunkDelay:    c.TrunkDelay,
		AccessRateBPS: c.AccessRateBPS,
		AccessDelay:   c.AccessDelay,
		Alg:           c.Alg,
		Duration:      c.Duration,
		Trace:         c.Trace,
		Telemetry:     c.Telemetry,
		Sessions:      make([]GraphSessionSpec, len(c.Sessions)),
		Shards:        c.Shards,
	}
	if g.AccessRateBPS == 0 {
		g.AccessRateBPS = 150e6
	}
	if c.TrunkRatesBPS != nil {
		for k := range g.Edges {
			g.Edges[k].RateBPS = c.TrunkRatesBPS[k]
		}
	}
	for i, s := range c.Sessions {
		g.Sessions[i] = GraphSessionSpec{Name: s.Name, Src: s.Entry, Dst: s.Exit, Pattern: s.Pattern}
	}
	return g
}

// chainEdges returns the edges (k, k+1) of an n-node chain.
func chainEdges(n int) []GraphEdge {
	edges := make([]GraphEdge, max(n-1, 0))
	for k := range edges {
		edges[k] = GraphEdge{U: k, V: k + 1}
	}
	return edges
}

// chain is the trunk-indexed view the chain spellings (ATMConfig,
// TCPConfig) put on their lowered graph. Trunk k is the graph's directed
// link 2k (edge k's k→k+1 half); the reverse halves carry only backward RM
// cells or ACKs.
type chain struct {
	*GraphNet
	// TrunkQueue[k] is trunk k's output-queue length (cells or packets),
	// sampled. Nil for an ATM trunk no session crosses.
	TrunkQueue []*metrics.Series
	// PeakTrunkQueue[k] is the exact maximum queue seen on trunk k, as of
	// the last Run.
	PeakTrunkQueue []int
}

// buildChain builds a lowered chain after the checks both chain spellings
// share: at least two nodes, and every session entering upstream of where
// it exits.
func buildChain(g GraphConfig, nodes string) (chain, error) {
	if g.Nodes < 2 {
		return chain{}, fmt.Errorf("scenario: need at least 2 %s, got %d", nodes, g.Nodes)
	}
	for i, s := range g.Sessions {
		if s.Src < 0 || s.Dst >= g.Nodes || s.Src >= s.Dst {
			return chain{}, fmt.Errorf("scenario: session %d has invalid path %d→%d", i, s.Src, s.Dst)
		}
	}
	n, err := BuildGraph(g)
	if err != nil {
		return chain{}, err
	}
	return chain{GraphNet: n, TrunkQueue: trunks(n.LinkQueue), PeakTrunkQueue: make([]int, g.Nodes-1)}, nil
}

// trunks returns a per-directed-link series slice's trunk entries (links
// 2k).
func trunks(links []*metrics.Series) []*metrics.Series {
	out := make([]*metrics.Series, len(links)/2)
	for k := range out {
		out[k] = links[2*k]
	}
	return out
}

// Run executes the scenario for d of simulated time (cumulative across
// calls) and refreshes the trunk-indexed queue peaks.
func (c chain) Run(d sim.Duration) {
	c.GraphNet.Run(d)
	for k := range c.PeakTrunkQueue {
		c.PeakTrunkQueue[k] = c.PeakLinkQueue(2 * k)
	}
}

// TrunkUtilization returns trunk k's lifetime utilization: what it sent
// divided by what the line could have carried.
func (c chain) TrunkUtilization(k int) float64 { return c.LinkUtilization(2 * k) }

// ATMNet is a built, runnable chain: the GraphNet that runs it plus a
// trunk-indexed view of its recorded series.
type ATMNet struct {
	chain
	// Config is the chain description the network was built from; the
	// lowered, defaulted form is GraphNet.Config.
	Config ATMConfig
	// FairShare[k] is trunk k's algorithm estimate (MACR for Phantom,
	// EPRCA, APRC; ERS for CAPC), sampled. Nil entries mean no algorithm,
	// or no session to run one for.
	FairShare []*metrics.Series
}

// BuildATM wires the scenario. Sources are started; call Run to execute.
func BuildATM(cfg ATMConfig) (*ATMNet, error) {
	if cfg.TrunkRatesBPS != nil && len(cfg.TrunkRatesBPS) != cfg.Switches-1 {
		return nil, fmt.Errorf("scenario: TrunkRatesBPS has %d entries for %d trunks",
			len(cfg.TrunkRatesBPS), cfg.Switches-1)
	}
	c, err := buildChain(cfg.Lower(), "switches")
	if err != nil {
		return nil, err
	}
	return &ATMNet{chain: c, Config: cfg, FairShare: trunks(c.FairShare)}, nil
}
