package scenario

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/atmnet"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// GraphEdge is one full-duplex trunk of a general topology: two independent
// unidirectional links U→V and V→U, each with the edge's line rate and
// propagation delay.
type GraphEdge struct {
	U, V int
	// RateBPS is the line rate in bits/s (0 falls back to the config's
	// TrunkRateBPS default).
	RateBPS float64
	// Delay is the propagation delay (0 falls back to the config default).
	Delay sim.Duration
}

// GraphSessionSpec declares one ABR session between two nodes of a general
// topology. The route is the deterministic BFS shortest path from Src to
// Dst (ties broken by edge declaration order), so a spec fully determines
// the network.
type GraphSessionSpec struct {
	Name    string
	Src     int
	Dst     int
	Pattern workload.Pattern
	// Params overrides the end-system parameters; nil means the paper's
	// defaults.
	Params *atm.SourceParams
}

// GraphConfig describes an arbitrary-topology ATM network: Nodes switches
// joined by full-duplex Edges. It is the one form every ATM topology is
// built from — the paper's linear parking lots (ATMConfig lowers to it) as
// much as the fat-tree and Waxman/WAN-like meshes the scenario generator
// emits.
type GraphConfig struct {
	Nodes int
	Edges []GraphEdge
	// TrunkRateBPS is the default edge rate in bits/s (default 150 Mb/s).
	TrunkRateBPS float64
	// TrunkDelay is the default edge propagation delay (default 5 µs).
	TrunkDelay sim.Duration
	// AccessRateBPS is the end-system access rate (default: the fastest
	// edge rate, so access links never become the shared bottleneck).
	AccessRateBPS float64
	// AccessDelay is the access-link propagation delay (default 1 µs).
	AccessDelay sim.Duration
	// Alg builds the rate-control algorithm for every output port that
	// carries some session's forward path; nil runs plain FIFO switches.
	Alg switchalg.Factory
	// SampleEvery is the series sampling period (default 1 ms).
	SampleEvery sim.Duration
	// Duration is a series pre-sizing hint, as in ATMConfig.
	Duration sim.Duration
	// TrunkLossRate injects random cell loss on every edge (both
	// directions). Zero disables injection.
	TrunkLossRate float64
	// Events is an optional transient schedule, indexed by edge.
	Events []TransientEvent
	// Trace, if non-nil, records drops, rate changes and transients.
	Trace *trace.Tracer
	// Telemetry, if non-nil, receives the scenario's counters.
	Telemetry *telemetry.Registry
	Sessions  []GraphSessionSpec
	// Shards splits the topology across N engines under the conservative
	// epoch-barrier protocol (DESIGN.md §14); 0 or 1 runs single-engine.
	// Auto-partitioning, clamped to the node count, is read off the edge
	// list: balanced contiguous ranges (shard.Linear) when it is a chain,
	// the greedy min-cut over edge delays (shard.Auto) otherwise.
	Shards int
	// Partition optionally pins each node to a shard (length Nodes, values
	// in [0, Shards)); nil auto-partitions.
	Partition []int
}

func (c *GraphConfig) setDefaults() {
	if c.TrunkRateBPS == 0 {
		c.TrunkRateBPS = 150e6
	}
	if c.TrunkDelay == 0 {
		c.TrunkDelay = 5 * sim.Microsecond
	}
	if c.AccessRateBPS == 0 {
		c.AccessRateBPS = c.TrunkRateBPS
		for _, ed := range c.Edges {
			if ed.RateBPS > c.AccessRateBPS {
				c.AccessRateBPS = ed.RateBPS
			}
		}
	}
	if c.AccessDelay == 0 {
		c.AccessDelay = sim.Microsecond
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = sim.Millisecond
	}
}

// EdgeRateBPS returns edge k's line rate after defaulting.
func (c *GraphConfig) EdgeRateBPS(k int) float64 {
	if c.Edges[k].RateBPS > 0 {
		return c.Edges[k].RateBPS
	}
	return c.TrunkRateBPS
}

// EdgeDelay returns edge k's propagation delay after defaulting.
func (c *GraphConfig) EdgeDelay(k int) sim.Duration {
	if c.Edges[k].Delay > 0 {
		return c.Edges[k].Delay
	}
	return c.TrunkDelay
}

// chainShaped reports whether the edge list is exactly the chain (k, k+1)
// in declaration order with one propagation delay: the parking lot, whose
// balanced contiguous partition Auto's greedy merge does not always find
// (DESIGN.md §14).
func (c *GraphConfig) chainShaped() bool {
	if len(c.Edges) != c.Nodes-1 {
		return false
	}
	for k, ed := range c.Edges {
		if ed.U != k || ed.V != k+1 || c.EdgeDelay(k) != c.EdgeDelay(0) {
			return false
		}
	}
	return true
}

// GraphNet is a built, runnable general-topology scenario. Directed link
// 2k is edge k's U→V direction and 2k+1 its V→U direction.
type GraphNet struct {
	Engine   *sim.Engine
	Config   GraphConfig
	Sources  []*atm.Source
	Dests    []*atm.Dest
	Switches []*atmnet.Switch

	// Paths[i] is session i's route as node indices (Src..Dst inclusive).
	Paths [][]int
	// LinkPaths[i] is session i's route as directed-link indices — the
	// session set of the max-min oracle problem.
	LinkPaths [][]int

	// ACR[i] is session i's allowed cell rate over time (cells/s).
	ACR []*metrics.Series
	// Goodput[i] is session i's delivered data rate (cells/s), sampled.
	Goodput []*metrics.Series
	// LinkQueue[l] is directed link l's output queue (cells), sampled only
	// for links on some forward path (nil otherwise, to keep sampling cost
	// proportional to the used network).
	LinkQueue []*metrics.Series
	// FairShare[l] is directed link l's algorithm estimate, or nil.
	FairShare []*metrics.Series
	// PeakLinkQueue[l] is the exact maximum queue seen on directed link l.
	PeakLinkQueue []int

	links         []*atmnet.Link // directed links, 2 per edge
	fairShareFns  []func() float64
	lastDelivered []int64
	plan          *shardPlan
	linkShard     []int // directed link -> owning shard (its source node's)
	sessionShard  []int // session -> owning shard (its Dst node's)
}

// samplesHint sizes a sampled series from the planned run length: one point
// per sampling period plus slack for the start/end samples. Zero (size
// lazily) when no duration hint is available.
func samplesHint(d, every sim.Duration) int {
	if d <= 0 || every <= 0 {
		return 0
	}
	return int(d/every) + 8
}

// fairShareGetter extracts the per-port fair-share estimate from a known
// algorithm type, for the FairShare figures.
func fairShareGetter(alg switchalg.Algorithm) func() float64 {
	switch a := alg.(type) {
	case *switchalg.Phantom:
		return func() float64 { return a.Control().MACR() }
	case *switchalg.EPRCA:
		return a.MACR
	case *switchalg.APRC:
		return a.MACR
	case *switchalg.CAPC:
		return a.ERS
	case *switchalg.ExactMaxMin:
		return a.Share
	case *switchalg.ERICA:
		return a.FairShare
	default:
		return nil
	}
}

// bfsPath returns the shortest Src→Dst path as node indices, using the
// deterministic breadth-first order induced by node and edge declaration
// order. ok is false when Dst is unreachable.
func bfsPath(nodes int, adj [][]int, edges []GraphEdge, src, dst int) ([]int, bool) {
	if src == dst {
		return nil, false
	}
	prev := make([]int, nodes)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []int{src}
	for len(queue) > 0 && prev[dst] == -1 {
		u := queue[0]
		queue = queue[1:]
		for _, k := range adj[u] {
			v := edges[k].U + edges[k].V - u
			if prev[v] == -1 {
				prev[v] = u
				queue = append(queue, v)
			}
		}
	}
	if prev[dst] == -1 {
		return nil, false
	}
	var rev []int
	for v := dst; v != src; v = prev[v] {
		rev = append(rev, v)
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// BuildGraph wires a general-topology scenario. Sources are started; call
// Run to execute.
func BuildGraph(cfg GraphConfig) (*GraphNet, error) {
	cfg.setDefaults()
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("scenario: need at least 2 nodes, got %d", cfg.Nodes)
	}
	if len(cfg.Edges) == 0 {
		return nil, fmt.Errorf("scenario: no edges")
	}
	if len(cfg.Sessions) == 0 {
		return nil, fmt.Errorf("scenario: no sessions")
	}
	adj := make([][]int, cfg.Nodes)
	for k, ed := range cfg.Edges {
		if ed.U < 0 || ed.U >= cfg.Nodes || ed.V < 0 || ed.V >= cfg.Nodes || ed.U == ed.V {
			return nil, fmt.Errorf("scenario: edge %d joins invalid nodes %d–%d", k, ed.U, ed.V)
		}
		adj[ed.U] = append(adj[ed.U], k)
		adj[ed.V] = append(adj[ed.V], k)
	}
	if err := validateEvents(cfg.Events, len(cfg.Edges)); err != nil {
		return nil, err
	}

	sedges := make([]shard.Edge, len(cfg.Edges))
	for k, ed := range cfg.Edges {
		sedges[k] = shard.Edge{U: ed.U, V: ed.V, Delay: cfg.EdgeDelay(k), Name: fmt.Sprintf("F%d", k)}
	}
	part, err := resolvePartition(cfg.Nodes, cfg.Shards, cfg.Partition, func(s int) shard.Partition {
		if cfg.chainShaped() {
			return shard.Linear(cfg.Nodes, s)
		}
		return shard.Auto(cfg.Nodes, sedges, s)
	})
	if err != nil {
		return nil, err
	}
	plan, err := newShardPlan(part, sedges, cfg.Telemetry, cfg.Trace)
	if err != nil {
		return nil, err
	}
	n := &GraphNet{Engine: plan.engines[0], Config: cfg, plan: plan}
	hint := samplesHint(cfg.Duration, cfg.SampleEvery)

	// Route every session first: only directed links on some forward path
	// host an algorithm instance, so an unused direction (a chain's reverse
	// trunks, say) stays a plain FIFO.
	dirLink := func(from, to int, k int) int {
		if cfg.Edges[k].U == from && cfg.Edges[k].V == to {
			return 2 * k
		}
		return 2*k + 1
	}
	edgeBetween := func(u, v int) int {
		for _, k := range adj[u] {
			if cfg.Edges[k].U+cfg.Edges[k].V-u == v {
				return k
			}
		}
		return -1
	}
	usedFwd := make([]bool, 2*len(cfg.Edges))
	for i, s := range cfg.Sessions {
		if s.Src < 0 || s.Src >= cfg.Nodes || s.Dst < 0 || s.Dst >= cfg.Nodes || s.Src == s.Dst {
			return nil, fmt.Errorf("scenario: session %d has invalid endpoints %d→%d", i, s.Src, s.Dst)
		}
		path, ok := bfsPath(cfg.Nodes, adj, cfg.Edges, s.Src, s.Dst)
		if !ok {
			return nil, fmt.Errorf("scenario: session %d: node %d unreachable from %d", i, s.Dst, s.Src)
		}
		var linkPath []int
		for h := 0; h+1 < len(path); h++ {
			l := dirLink(path[h], path[h+1], edgeBetween(path[h], path[h+1]))
			usedFwd[l] = true
			linkPath = append(linkPath, l)
		}
		n.Paths = append(n.Paths, path)
		n.LinkPaths = append(n.LinkPaths, linkPath)
	}

	for i := 0; i < cfg.Nodes; i++ {
		sw := atmnet.NewSwitch(fmt.Sprintf("S%d", i))
		sw.Instrument(plan.regFor(i))
		n.Switches = append(n.Switches, sw)
	}

	// Directed links and their ports. Both directions always exist (the
	// reverse direction carries backward RM cells even when no session is
	// routed over it), but only used forward directions get an algorithm
	// and recorded series. A direction whose endpoints live on different
	// shards is a cut link: transmission pacing stays on the owning shard,
	// the propagation delay moves into a conduit drained at epoch barriers
	// (same arrival times as the single-engine wiring).
	ports := make([]*atmnet.Port, 2*len(cfg.Edges))
	n.links = make([]*atmnet.Link, 2*len(cfg.Edges))
	n.linkShard = make([]int, 2*len(cfg.Edges))
	n.LinkQueue = make([]*metrics.Series, 2*len(cfg.Edges))
	n.FairShare = make([]*metrics.Series, 2*len(cfg.Edges))
	n.PeakLinkQueue = make([]int, 2*len(cfg.Edges))
	n.fairShareFns = make([]func() float64, 2*len(cfg.Edges))
	for k, ed := range cfg.Edges {
		cps := atm.CPS(cfg.EdgeRateBPS(k))
		delay := cfg.EdgeDelay(k)
		for dir := 0; dir < 2; dir++ {
			from, to, name := ed.U, ed.V, fmt.Sprintf("F%d", k)
			if dir == 1 {
				from, to, name = ed.V, ed.U, fmt.Sprintf("R%d", k)
			}
			linkDelay := delay
			var dst atm.Sink = n.Switches[to]
			if plan.part.Cut(from, to) {
				dst = plan.group.NewConduit(name, delay, plan.engineFor(to), n.Switches[to])
				linkDelay = 0
			}
			l := atmnet.NewLink(name, cps, linkDelay, dst)
			l.Instrument(plan.regFor(from))
			// Seeds are assigned unconditionally so a TransientLoss event that
			// turns loss on mid-run draws from a deterministic stream.
			l.LossSeed = uint64(2*k + dir + 1)
			if cfg.TrunkLossRate > 0 {
				l.LossRate = cfg.TrunkLossRate
			}
			idx := 2*k + dir
			var alg switchalg.Algorithm
			if usedFwd[idx] && cfg.Alg != nil {
				alg = cfg.Alg()
			}
			instrumentAlg(alg, plan.regFor(from))
			ports[idx] = n.Switches[from].AddPort(plan.engineFor(from), l, alg)
			n.links[idx] = l
			n.linkShard[idx] = plan.shardOf(from)
			if usedFwd[idx] {
				n.LinkQueue[idx] = metrics.AcquireSeries(fmt.Sprintf("queue[%s]", l.Name), hint)
				idx := idx
				l.OnQueue = func(_ sim.Time, q int) {
					if q > n.PeakLinkQueue[idx] {
						n.PeakLinkQueue[idx] = q
					}
				}
				if cfg.Trace != nil {
					tr := plan.traceFor(from)
					name := l.Name
					l.OnDrop = func(now sim.Time, c atm.Cell) {
						tr.Emit(now, name, "drop",
							trace.I("vc", int64(c.VC)), trace.S("cell", c.Kind.String()))
					}
				}
				if alg != nil {
					n.FairShare[idx] = metrics.AcquireSeries(fmt.Sprintf("fairshare[%s]", l.Name), hint)
				}
				n.fairShareFns[idx] = fairShareGetter(alg)
			}
		}
	}
	scheduleEvents(cfg.Events, cfg.Edges, n.links, plan)

	// Sessions: source → access → S_src … S_dst → access → dest, with the
	// reverse node path carrying backward RM. End systems are colocated
	// with their switch: the source side lives on S_src's shard, the
	// destination side on S_dst's — access links never cross shards, only
	// trunks do.
	accessCPS := atm.CPS(cfg.AccessRateBPS)
	for i, spec := range cfg.Sessions {
		vc := atm.VCID(i + 1)
		params := atm.DefaultSourceParams()
		if spec.Params != nil {
			params = *spec.Params
		}
		path := n.Paths[i]
		srcSw, dstSw := n.Switches[spec.Src], n.Switches[spec.Dst]
		srcEng, dstEng := plan.engineFor(spec.Src), plan.engineFor(spec.Dst)
		srcReg, dstReg := plan.regFor(spec.Src), plan.regFor(spec.Dst)

		toDest := atmnet.NewLink(fmt.Sprintf("out%d", i), accessCPS, cfg.AccessDelay, nil)
		toDest.Instrument(dstReg)
		var egressAlg switchalg.Algorithm
		if cfg.Alg != nil {
			egressAlg = cfg.Alg()
		}
		instrumentAlg(egressAlg, dstReg)
		egressPort := dstSw.AddPort(dstEng, toDest, egressAlg)
		fromDest := atmnet.NewLink(fmt.Sprintf("destrev%d", i), accessCPS, cfg.AccessDelay, dstSw)
		fromDest.Instrument(dstReg)
		dest := atm.NewDest(vc, fromDest)
		toDest.Dst = dest

		toEntry := atmnet.NewLink(fmt.Sprintf("in%d", i), accessCPS, cfg.AccessDelay, srcSw)
		toEntry.Instrument(srcReg)
		src := atm.NewSource(vc, params, spec.Pattern, toEntry)
		src.Instrument(srcReg)
		toSource := atmnet.NewLink(fmt.Sprintf("srcrev%d", i), accessCPS, cfg.AccessDelay, src)
		toSource.Instrument(srcReg)
		ingressRevPort := srcSw.AddPort(srcEng, toSource, nil)

		// Routes: at hop j, forward exits towards hop j+1 (or the egress
		// access link at the last hop); backward RM exits towards hop j−1
		// (or the source's access link at the first hop).
		for j, node := range path {
			var fwd, bwd *atmnet.Port
			if j+1 < len(path) {
				fwd = ports[dirLink(node, path[j+1], edgeBetween(node, path[j+1]))]
			} else {
				fwd = egressPort
			}
			if j > 0 {
				bwd = ports[dirLink(node, path[j-1], edgeBetween(node, path[j-1]))]
			} else {
				bwd = ingressRevPort
			}
			n.Switches[node].Route(vc, fwd, bwd)
		}

		// ACR changes per backward RM cell, not per SampleEvery: its
		// storage grows with the points it records.
		acr := metrics.AcquireSeries(fmt.Sprintf("ACR[%s]", spec.Name), 0)
		if cfg.Trace != nil {
			tr := plan.traceFor(spec.Src)
			name := spec.Name
			src.OnRateChange = func(now sim.Time, r float64) {
				acr.Add(now, r)
				tr.Emit(now, name, "rate", trace.F("acr", r))
			}
		} else {
			src.OnRateChange = func(now sim.Time, r float64) { acr.Add(now, r) }
		}
		n.ACR = append(n.ACR, acr)
		n.Goodput = append(n.Goodput, metrics.AcquireSeries(fmt.Sprintf("goodput[%s]", spec.Name), hint))
		n.Sources = append(n.Sources, src)
		n.Dests = append(n.Dests, dest)
		n.lastDelivered = append(n.lastDelivered, 0)
		n.sessionShard = append(n.sessionShard, plan.shardOf(spec.Dst))

		if err := src.Start(srcEng); err != nil {
			return nil, fmt.Errorf("scenario: session %d: %w", i, err)
		}
	}

	// Every shard samples the state it owns at the same simulated instants,
	// so the merged series are indistinguishable from a single sampler's.
	for s := 0; s < plan.part.Shards; s++ {
		s := s
		plan.engines[s].Every(cfg.SampleEvery, func(en *sim.Engine) { n.sample(s, en.Now()) })
	}
	return n, nil
}

// sample records one point on shard s's share of the sampled series.
func (n *GraphNet) sample(s int, now sim.Time) {
	dt := now.Sub(n.plan.lastSamples[s]).Seconds()
	n.plan.lastSamples[s] = now
	for i, d := range n.Dests {
		if n.sessionShard[i] != s {
			continue
		}
		cur := d.DataCells()
		if dt > 0 {
			n.Goodput[i].Add(now, float64(cur-n.lastDelivered[i])/dt)
		}
		n.lastDelivered[i] = cur
	}
	for l, series := range n.LinkQueue {
		if series == nil || n.linkShard[l] != s {
			continue
		}
		series.Add(now, float64(n.links[l].QueueLen()))
		if fn := n.fairShareFns[l]; fn != nil {
			n.FairShare[l].Add(now, fn())
		}
	}
}

// Run executes the scenario for d of simulated time (cumulative across
// calls) and folds the engines' event statistics into the telemetry
// registry. Sharded scenarios advance under the epoch-barrier protocol;
// the caller's goroutine coordinates and owns all merged observability.
func (n *GraphNet) Run(d sim.Duration) {
	n.plan.run(d)
	n.plan.flush()
}

// Shards returns the number of engines the scenario runs on.
func (n *GraphNet) Shards() int { return n.plan.part.Shards }

// ShardStats returns the sync-protocol statistics; ok is false when the
// scenario runs single-engine.
func (n *GraphNet) ShardStats() (shard.Stats, bool) {
	if n.plan.group == nil {
		return shard.Stats{}, false
	}
	return n.plan.group.Stat(), true
}

// FiredTotal returns the total number of events fired across all engines —
// a scheduler-level fingerprint input that, unlike per-engine counts, is
// comparable between sharded and single-engine runs only in aggregate trends
// (cross-shard delivery adds conduit events), so callers wanting
// shard-invariant fingerprints should hash data-plane metrics instead.
func (n *GraphNet) FiredTotal() uint64 {
	var t uint64
	for _, e := range n.plan.engines {
		t += uint64(e.Fired())
	}
	return t
}

// Release returns every recorded series' point storage to the metrics pool.
// Call it only when all reads of the series are done — parameter sweeps
// build and discard a full network per point, and pooling the storage keeps
// a sweep's allocation cost flat. The network is unusable afterwards.
func (n *GraphNet) Release() {
	for _, s := range n.ACR {
		s.Release()
	}
	for _, s := range n.Goodput {
		s.Release()
	}
	for _, s := range n.LinkQueue {
		if s != nil {
			s.Release()
		}
	}
	for _, s := range n.FairShare {
		if s != nil {
			s.Release()
		}
	}
}

// LinkQueueLen returns directed link l's current queue length.
func (n *GraphNet) LinkQueueLen(l int) int { return n.links[l].QueueLen() }

// LinkCapacityCPS returns directed link l's configured line rate in
// cells/s (the build-time rate; transient events change the live rate but
// not this oracle input).
func (n *GraphNet) LinkCapacityCPS(l int) float64 {
	return atm.CPS(n.Config.EdgeRateBPS(l / 2))
}

// LinkUtilization returns directed link l's lifetime utilization: cells
// sent divided by the cells the line could have carried.
func (n *GraphNet) LinkUtilization(l int) float64 {
	elapsed := n.Engine.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(n.links[l].Sent()) / (n.LinkCapacityCPS(l) * elapsed)
}

// MeanGoodputCPS returns session i's lifetime mean delivered rate.
func (n *GraphNet) MeanGoodputCPS(i int) float64 {
	elapsed := n.Engine.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(n.Dests[i].DataCells()) / elapsed
}

// MaxMinOracle returns the max-min fair rates (cells/s) over the directed
// trunk links, using each session's routed link path.
func (n *GraphNet) MaxMinOracle() ([]float64, error) {
	caps := make([]float64, len(n.links))
	for l := range caps {
		caps[l] = n.LinkCapacityCPS(l)
	}
	return metrics.MaxMinSolve(metrics.MaxMinProblem{Capacity: caps, Sessions: n.LinkPaths})
}
