// Package scenario assembles complete experiment topologies — end systems,
// access links, switches, trunks — and records the time series every figure
// of the paper is drawn from. ATM networks of any shape are wired by one
// builder, BuildGraph; the linear ("parking lot") networks that cover all of
// the paper's configurations — a single shared link is the two-switch
// special case, multi-bottleneck fairness (the beat-down experiments) uses
// longer chains — are described by ATMConfig and lowered onto it.
package scenario

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ATMSessionSpec declares one ABR session over the linear network: it
// enters at switch Entry and exits at switch Exit (Entry < Exit), so it
// crosses trunks Entry..Exit−1.
type ATMSessionSpec struct {
	Name    string
	Entry   int
	Exit    int
	Pattern workload.Pattern
	// Params overrides the end-system parameters; nil means the paper's
	// defaults.
	Params *atm.SourceParams
}

// ATMConfig describes a linear ATM network of Switches switches chained by
// Switches−1 trunks. It is a way to describe a network, not a second way to
// build one: BuildATM builds the GraphConfig that Lower turns it into.
type ATMConfig struct {
	Switches int
	// TrunkRateBPS is the trunk line rate in bits/s (default 150 Mb/s).
	TrunkRateBPS float64
	// TrunkRatesBPS optionally gives each trunk its own rate (length must
	// be Switches−1), enabling heterogeneous-capacity configurations like
	// the ATM Forum's generic fairness topologies. Entries of 0 fall back
	// to TrunkRateBPS.
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
	// SampleEvery is the series sampling period (default 1 ms).
	SampleEvery sim.Duration
	// Duration, when set, is the planned run length. It is a sizing hint
	// only — Run is still driven by the caller — letting the recorded
	// series pre-allocate duration/SampleEvery points instead of
	// append-doubling their way up during the run.
	Duration sim.Duration
	// TrunkLossRate injects random cell loss on every trunk (both
	// directions, so data, forward RM and backward RM cells are all at
	// risk) for failure testing. Zero disables injection.
	TrunkLossRate float64
	// Events is an optional transient schedule: mid-run trunk rate changes
	// and loss onset, indexed by trunk. See TransientEvent.
	Events []TransientEvent
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
	// Partition optionally pins each switch to a shard (length Switches,
	// values in [0, Shards)); nil auto-partitions.
	Partition []int
}

// Lower renders the chain as the graph it is: switch i is node i, trunk k
// is edge k joining nodes k and k+1, and a session is routed Entry→Exit.
// The one default the two descriptions disagree on, the access rate, is
// made explicit. Switches must be at least 2 and TrunkRatesBPS, if set,
// Switches−1 long (BuildATM checks both).
func (c *ATMConfig) Lower() GraphConfig {
	g := GraphConfig{
		Nodes:         c.Switches,
		Edges:         make([]GraphEdge, c.Switches-1),
		TrunkRateBPS:  c.TrunkRateBPS,
		TrunkDelay:    c.TrunkDelay,
		AccessRateBPS: c.AccessRateBPS,
		AccessDelay:   c.AccessDelay,
		Alg:           c.Alg,
		SampleEvery:   c.SampleEvery,
		Duration:      c.Duration,
		TrunkLossRate: c.TrunkLossRate,
		Events:        c.Events,
		Trace:         c.Trace,
		Telemetry:     c.Telemetry,
		Sessions:      make([]GraphSessionSpec, len(c.Sessions)),
		Shards:        c.Shards,
		Partition:     c.Partition,
	}
	if g.AccessRateBPS == 0 {
		g.AccessRateBPS = 150e6
	}
	for k := range g.Edges {
		g.Edges[k] = GraphEdge{U: k, V: k + 1}
		if c.TrunkRatesBPS != nil {
			g.Edges[k].RateBPS = c.TrunkRatesBPS[k]
		}
	}
	for i, s := range c.Sessions {
		g.Sessions[i] = GraphSessionSpec{Name: s.Name, Src: s.Entry, Dst: s.Exit, Pattern: s.Pattern, Params: s.Params}
	}
	return g
}

// ATMNet is a built, runnable chain: the GraphNet that runs it plus a
// trunk-indexed view of its recorded series. Trunk k is the graph's
// directed link 2k (edge k's k→k+1 half); the reverse halves carry only
// backward RM cells.
type ATMNet struct {
	*GraphNet
	// Config is the chain description the network was built from; the
	// lowered, defaulted form is GraphNet.Config.
	Config ATMConfig

	// TrunkQueue[k] is trunk k's output-queue length (cells), sampled. Nil
	// for a trunk no session crosses.
	TrunkQueue []*metrics.Series
	// FairShare[k] is trunk k's algorithm estimate (MACR for Phantom,
	// EPRCA, APRC; ERS for CAPC), sampled. Nil entries mean no algorithm,
	// or no session to run one for.
	FairShare []*metrics.Series
	// PeakTrunkQueue[k] is the exact maximum queue seen on trunk k, as of
	// the last Run.
	PeakTrunkQueue []int
}

// BuildATM wires the scenario. Sources are started; call Run to execute.
func BuildATM(cfg ATMConfig) (*ATMNet, error) {
	if cfg.Switches < 2 {
		return nil, fmt.Errorf("scenario: need at least 2 switches, got %d", cfg.Switches)
	}
	for i, s := range cfg.Sessions {
		if s.Entry < 0 || s.Exit >= cfg.Switches || s.Entry >= s.Exit {
			return nil, fmt.Errorf("scenario: session %d has invalid path %d→%d", i, s.Entry, s.Exit)
		}
	}
	if cfg.TrunkRatesBPS != nil && len(cfg.TrunkRatesBPS) != cfg.Switches-1 {
		return nil, fmt.Errorf("scenario: TrunkRatesBPS has %d entries for %d trunks",
			len(cfg.TrunkRatesBPS), cfg.Switches-1)
	}
	g, err := BuildGraph(cfg.Lower())
	if err != nil {
		return nil, err
	}
	n := &ATMNet{GraphNet: g, Config: cfg, PeakTrunkQueue: make([]int, cfg.Switches-1)}
	for k := range n.PeakTrunkQueue {
		n.TrunkQueue = append(n.TrunkQueue, g.LinkQueue[2*k])
		n.FairShare = append(n.FairShare, g.FairShare[2*k])
	}
	return n, nil
}

// Run executes the scenario for d of simulated time (cumulative across
// calls) and refreshes the trunk-indexed queue peaks.
func (n *ATMNet) Run(d sim.Duration) {
	n.GraphNet.Run(d)
	for k := range n.PeakTrunkQueue {
		n.PeakTrunkQueue[k] = n.PeakLinkQueue[2*k]
	}
}

// TrunkQueueLen returns trunk k's current output-queue length.
func (n *ATMNet) TrunkQueueLen(k int) int { return n.LinkQueueLen(2 * k) }

// TrunkCapacityCPS returns trunk k's configured line rate in cells/s (the
// build-time rate; transient events change the live rate, not this value).
func (n *ATMNet) TrunkCapacityCPS(k int) float64 { return n.LinkCapacityCPS(2 * k) }

// TrunkUtilization returns trunk k's lifetime utilization: cells sent
// divided by the cells the line could have carried.
func (n *ATMNet) TrunkUtilization(k int) float64 { return n.LinkUtilization(2 * k) }
