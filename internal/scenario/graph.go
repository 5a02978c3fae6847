package scenario

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/atm"
	"repro/internal/atmnet"
	"repro/internal/interop"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/tcp"
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

// GraphSessionSpec declares one session between two nodes of a general
// topology. The route is the deterministic BFS shortest path from Src to
// Dst (ties broken by edge declaration order), so a spec fully determines
// the network.
type GraphSessionSpec struct {
	Name    string
	Src     int
	Dst     int
	Pattern workload.Pattern
	// flow, when set, makes the session a greedy TCP flow instead of an ABR
	// source/dest pair: a sender and a receiver on IP access ports at
	// router nodes, or behind an AAL5 edge pair (data VC, then ACK VC) at
	// switch nodes. Its AccessDelay is the sender side's; the receiver side
	// uses the graph's AccessDelay.
	flow *TCPFlowSpec
}

// GraphConfig describes an arbitrary-topology network: Nodes switches (or
// routers) joined by full-duplex Edges. It is the one form every topology
// is built from — the paper's linear parking lots (ATMConfig lowers to
// it), its TCP router chains (TCPConfig) and TCP-over-ATM cloud
// (InteropConfig) as much as the fat-tree and Waxman/WAN-like meshes the
// scenario generator emits.
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

	// routers, when set, makes every node an IP router; nil nodes are ATM
	// switches.
	routers *routerNodes
	// edgeQueueBytes bounds each AAL5 ingress edge's segmentation queue (0:
	// the edge's default).
	edgeQueueBytes int
}

// routerNodes makes a graph's nodes IP routers. Each edge's U→V port is a
// trunk port: it has the physical buffer, a discipline instance and
// recorded series whether or not a flow crosses it (the TCP chain's rule,
// pinned by TestTCPChainIdleTrunk). The V→U port is an unbounded FIFO for
// the ACKs. Router graphs run on one engine.
type routerNodes struct {
	buffer int                  // packets per trunk port
	disc   func() ip.Discipline // nil: drop-tail
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
	Engine *sim.Engine
	Config GraphConfig
	// Sources[i] and Dests[i] are session i's ABR end systems (nil for a
	// TCP session).
	Sources  []*atm.Source
	Dests    []*atm.Dest
	Switches []*atmnet.Switch // empty when the nodes are routers

	// Paths[i] is session i's route as node indices (Src..Dst inclusive).
	Paths [][]int
	// LinkPaths[i] is session i's route as directed-link indices — the
	// session set of the max-min oracle problem.
	LinkPaths [][]int

	// ACR[i] is session i's allowed cell rate over time (cells/s): the ABR
	// source's, or a TCP-over-ATM flow's data edge's; nil for a TCP flow
	// on routers.
	ACR []*metrics.Series
	// Goodput[i] is session i's delivered data rate, sampled: cells/s for
	// an ABR session, payload bits/s for a TCP one.
	Goodput []*metrics.Series
	// LinkQueue[l] is directed link l's output queue (cells or packets),
	// sampled only for links on some forward path (nil otherwise, to keep
	// sampling cost proportional to the used network).
	LinkQueue []*metrics.Series
	// FairShare[l] is directed link l's algorithm estimate, or nil. On a
	// router it is a Phantom discipline's MACR (bits/s), recorded per tick.
	FairShare []*metrics.Series

	links   []*atmnet.Link // ATM directed links, 2 per edge: switch ports
	ipPorts []*ip.Port     // router directed links, 2 per edge
	routers []*ip.Router
	// A TCP session's end systems (nil entries for an ABR session);
	// ingress only behind AAL5 edges.
	senders   []*tcp.Sender
	receivers []*tcp.Receiver
	ingress   []*interop.IngressEdge

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

// bfsPath returns the shortest Src→Dst path as node indices and as the
// directed links between them, using the deterministic breadth-first order
// induced by node and edge declaration order. ok is false when Dst is
// unreachable.
func bfsPath(nodes int, adj [][]int, edges []GraphEdge, src, dst int) (path, links []int, ok bool) {
	prev, via := make([]int, nodes), make([]int, nodes)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []int{src}
	for len(queue) > 0 && prev[dst] == -1 {
		u := queue[0]
		queue = queue[1:]
		for _, k := range adj[u] {
			v, l := edges[k].V, 2*k
			if v == u {
				v, l = edges[k].U, 2*k+1
			}
			if prev[v] == -1 {
				prev[v], via[v] = u, l
				queue = append(queue, v)
			}
		}
	}
	if prev[dst] == -1 {
		return nil, nil, false
	}
	path = []int{dst}
	for v := dst; v != src; v = prev[v] {
		path, links = append(path, prev[v]), append(links, via[v])
	}
	slices.Reverse(path)
	slices.Reverse(links)
	return path, links, true
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
	if err := checkVCSpace(len(cfg.Sessions)); err != nil {
		return nil, err
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
	for s := range plan.state {
		plan.state[s].clock = metrics.AcquireClock(samplesHint(cfg.Duration, cfg.SampleEvery))
	}

	// Route every session first: only directed links on some forward path
	// host an algorithm instance, so an unused direction (a chain's reverse
	// trunks, say) stays a plain FIFO. A TCP-over-ATM flow's ACK VC runs
	// its path backwards, which uses the reverse directions too. A route
	// depends only on its endpoints, so sessions between the same two
	// nodes share one (read-only) route.
	usedFwd := make([]bool, 2*len(cfg.Edges))
	routes := map[[2]int][2][]int{}
	for i, s := range cfg.Sessions {
		if s.Src < 0 || s.Src >= cfg.Nodes || s.Dst < 0 || s.Dst >= cfg.Nodes || s.Src == s.Dst {
			return nil, fmt.Errorf("scenario: session %d has invalid endpoints %d→%d", i, s.Src, s.Dst)
		}
		if s.flow != nil && part.Shards > 1 {
			return nil, fmt.Errorf("scenario: session %d: TCP flows run on one engine, not %d shards", i, part.Shards)
		}
		route, ok := routes[[2]int{s.Src, s.Dst}]
		if !ok {
			path, links, ok := bfsPath(cfg.Nodes, adj, cfg.Edges, s.Src, s.Dst)
			if !ok {
				return nil, fmt.Errorf("scenario: session %d: node %d unreachable from %d", i, s.Dst, s.Src)
			}
			route = [2][]int{path, links}
			routes[[2]int{s.Src, s.Dst}] = route
		}
		path, links := route[0], route[1]
		for _, l := range links {
			usedFwd[l] = true
			if s.flow != nil && cfg.routers == nil {
				usedFwd[l^1] = true
			}
		}
		n.Paths = append(n.Paths, path)
		n.LinkPaths = append(n.LinkPaths, links)
	}

	for i := 0; i < cfg.Nodes; i++ {
		if cfg.routers != nil {
			n.routers = append(n.routers, ip.NewRouter(fmt.Sprintf("R%d", i)))
			continue
		}
		sw := atmnet.NewSwitch(fmt.Sprintf("S%d", i))
		sw.Instrument(plan.regFor(i))
		n.Switches = append(n.Switches, sw)
	}

	// Directed links and their ports. Both directions always exist (the
	// reverse direction carries backward RM cells or ACKs even when no
	// session is routed over it).
	nl := 2 * len(cfg.Edges)
	n.linkShard = make([]int, nl)
	n.LinkQueue = make([]*metrics.Series, nl)
	n.FairShare = make([]*metrics.Series, nl)
	if cfg.routers != nil {
		n.ipPorts = make([]*ip.Port, nl)
	} else {
		n.links = make([]*atmnet.Link, nl)
	}
	for l := 0; l < nl; l++ {
		if cfg.routers != nil {
			n.addRouterPort(l)
		} else {
			n.addLink(l, usedFwd[l])
		}
	}
	scheduleEvents(cfg.Events, cfg.Edges, n.links, plan)

	ns := len(cfg.Sessions)
	n.Sources, n.Dests = make([]*atm.Source, ns), make([]*atm.Dest, ns)
	n.ACR, n.Goodput = make([]*metrics.Series, ns), make([]*metrics.Series, ns)
	n.senders, n.receivers = make([]*tcp.Sender, ns), make([]*tcp.Receiver, ns)
	n.ingress = make([]*interop.IngressEdge, ns)
	n.lastDelivered, n.sessionShard = make([]int64, ns), make([]int, ns)
	vc := atm.VCID(1)
	for i, spec := range cfg.Sessions {
		n.sessionShard[i] = plan.shardOf(spec.Dst)
		var err error
		if spec.flow != nil {
			err = n.attachTCP(i, vc)
			vc += 2
		} else {
			err = n.attachABR(i, vc)
			vc++
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: session %d: %w", i, err)
		}
	}

	// Every shard samples the state it owns at the same simulated instants,
	// so the merged series are indistinguishable from a single sampler's.
	for s := 0; s < plan.part.Shards; s++ {
		plan.engines[s].Every(cfg.SampleEvery, graphNetSample, sim.Payload{Obj: n, I: int64(s)})
	}
	return n, nil
}

// graphNetSample samples the state that shard p.I of the GraphNet in p.Obj
// owns.
func graphNetSample(e *sim.Engine, p sim.Payload) { p.Obj.(*GraphNet).sample(int(p.I), e.Now()) }

// checkVCSpace rejects a session count the VCs cannot number. Sessions
// take VCs in order from 1, one for an ABR session and two for a TCP flow
// over ATM (its data and ACK VCs), so session i's VCs are at most 2i+1 and
// 2i+2, and a VCID is an int32.
func checkVCSpace(sessions int) error {
	if sessions > math.MaxInt32/2 {
		return fmt.Errorf("scenario: %d sessions need more VCs than an int32 numbers (at most %d sessions)", sessions, math.MaxInt32/2)
	}
	return nil
}

// half returns directed link l's endpoints and name: F<k> for edge k's U→V
// half, R<k> for its V→U half.
func (c *GraphConfig) half(l int) (from, to int, name string) {
	ed := c.Edges[l/2]
	if l%2 == 0 {
		return ed.U, ed.V, fmt.Sprintf("F%d", l/2)
	}
	return ed.V, ed.U, fmt.Sprintf("R%d", l/2)
}

// addLink builds ATM directed link l, a switch port. Only a used direction
// gets an algorithm and recorded series. A direction whose endpoints live
// on different shards is a cut link: transmission pacing stays on the
// owning shard, the propagation delay moves into a conduit drained at
// epoch barriers (same arrival times as the single-engine wiring).
func (n *GraphNet) addLink(l int, used bool) {
	cfg, plan := &n.Config, n.plan
	from, to, name := cfg.half(l)
	delay := cfg.EdgeDelay(l / 2)
	linkDelay := delay
	var dst atm.Sink = n.Switches[to]
	if plan.part.Cut(from, to) {
		dst = plan.group.NewConduit(delay, plan.engineFor(to), n.Switches[to])
		linkDelay = 0
	}
	link := atmnet.NewLink(name, atm.CPS(cfg.EdgeRateBPS(l/2)), linkDelay, dst)
	if used && cfg.Alg != nil {
		link.Attach(plan.engineFor(from), cfg.Alg())
	}
	link.Instrument(plan.regFor(from))
	// Seeds are assigned unconditionally so a TransientLoss event that
	// turns loss on mid-run draws from a deterministic stream.
	link.LossSeed = uint64(l + 1)
	if cfg.TrunkLossRate > 0 {
		link.LossRate = cfg.TrunkLossRate
	}
	n.links[l] = link
	n.linkShard[l] = plan.shardOf(from)
	if !used {
		return
	}
	clock := n.clock(n.linkShard[l])
	n.LinkQueue[l] = metrics.AcquireSeries(fmt.Sprintf("queue[%s]", name), clock)
	if link.Algorithm() != nil {
		n.FairShare[l] = metrics.AcquireSeries(fmt.Sprintf("fairshare[%s]", name), clock)
	}
}

// addRouterPort builds router directed link l: a trunk port with buffer,
// discipline and series for a U→V half, a plain ACK FIFO for a V→U half
// (see routerNodes).
func (n *GraphNet) addRouterPort(l int) {
	cfg := &n.Config
	_, to, name := cfg.half(l)
	p := ip.NewPort(name, cfg.EdgeRateBPS(l/2), cfg.EdgeDelay(l/2), n.routers[to])
	p.Instrument(cfg.Telemetry)
	p.LossSeed = uint64(l + 1)
	if cfg.TrunkLossRate > 0 {
		p.LossRate = cfg.TrunkLossRate
	}
	n.ipPorts[l] = p
	if l%2 == 1 {
		return
	}
	p.MaxQueue = cfg.routers.buffer
	if tr := cfg.Trace; tr != nil {
		p.OnDrop = func(now sim.Time, pkt *ip.Packet, reason string) {
			tr.Emit(now, name, "drop",
				trace.I("flow", int64(pkt.Flow)), trace.I("seq", pkt.Seq), trace.S("reason", reason))
		}
	}
	if cfg.routers.disc != nil {
		d := cfg.routers.disc()
		if pd, ok := d.(*ip.PhantomDiscipline); ok {
			// MACR ticks every discipline interval, not per SampleEvery.
			macr := metrics.AcquireSeries(fmt.Sprintf("MACR[%s]", name), nil)
			pd.OnTick = func(now sim.Time, _, v float64) { macr.Add(now, v) }
			n.FairShare[l] = macr
		}
		p.Attach(n.Engine, d)
	}
	n.LinkQueue[l] = metrics.AcquireSeries(fmt.Sprintf("queue[%s]", name), n.clock(n.linkShard[l]))
}

// walk routes one direction of a session over path (nodes) and links (its
// directed links): at each node, forward traffic leaves on the next link's
// port (out at the last node) and backward traffic on the previous link's
// reverse port (in at the first).
func walk[P any](path, links []int, ports []P, in, out P, route func(node int, fwd, bwd P)) {
	for j, node := range path {
		fwd, bwd := out, in
		if j < len(links) {
			fwd = ports[links[j]]
		}
		if j > 0 {
			bwd = ports[links[j-1]^1]
		}
		route(node, fwd, bwd)
	}
}

// accessVC routes vc over session i's path — backwards when back is set —
// and wires its access links. At the last switch, the VC's cells leave
// through a port that runs an alg instance, to the end system egress
// returns; it turns RM cells around over the link it is given. At the
// first switch, the end system ingress is given its link into the cloud
// and returns the sink for backward RM cells; egress is called first, so
// ingress may refer to what it built. End systems are colocated with their
// switch, so access links never cross shards, only trunks do.
func (n *GraphNet) accessVC(i int, prefix string, vc atm.VCID, back bool, inDelay, outDelay sim.Duration, alg switchalg.Factory,
	egress func(turn *atmnet.Link) atm.Sink, ingress func(in *atmnet.Link) atm.Sink) {
	cfg, plan, path := &n.Config, n.plan, n.Paths[i]
	first, last := path[0], path[len(path)-1]
	if back {
		first, last = last, first
	}
	link := func(name string, node int, delay sim.Duration, dst atm.Sink, alg switchalg.Factory) *atmnet.Link {
		l := atmnet.NewLink(fmt.Sprintf("%s%s%d", prefix, name, i), atm.CPS(cfg.AccessRateBPS), delay, dst)
		if alg != nil {
			l.Attach(plan.engineFor(node), alg())
		}
		l.Instrument(plan.regFor(node))
		return l
	}
	out := link("out", last, outDelay, nil, alg)
	out.Dst = egress(link("destrev", last, cfg.AccessDelay, n.Switches[last], nil))
	in := link("in", first, inDelay, n.Switches[first], nil)
	inPort, outPort := link("srcrev", first, inDelay, ingress(in), nil), out
	route := func(node int, fwd, bwd *atmnet.Link) { n.Switches[node].Route(vc, fwd, bwd) }
	if back {
		// What is forward for the path is backward for this VC.
		inPort, outPort = outPort, inPort
		route = func(node int, fwd, bwd *atmnet.Link) { n.Switches[node].Route(vc, bwd, fwd) }
	}
	walk(path, n.LinkPaths[i], n.links, inPort, outPort, route)
}

// attachABR wires session i as an ABR source → access → S_src … S_dst →
// access → dest on vc, with the reverse node path carrying backward RM.
// The source side lives on S_src's shard, the destination side on S_dst's.
func (n *GraphNet) attachABR(i int, vc atm.VCID) error {
	cfg, plan, spec := &n.Config, n.plan, n.Config.Sessions[i]
	params := atm.DefaultSourceParams()
	var src *atm.Source
	var dest *atm.Dest
	n.accessVC(i, "", vc, false, cfg.AccessDelay, cfg.AccessDelay, cfg.Alg,
		func(turn *atmnet.Link) atm.Sink {
			dest = atm.NewDest(vc, turn)
			return dest
		},
		func(in *atmnet.Link) atm.Sink {
			src = atm.NewSource(vc, params, spec.Pattern, in)
			src.Instrument(plan.regFor(spec.Src))
			return src
		})

	// ACR changes per backward RM cell, not per SampleEvery: its
	// storage grows with the points it records.
	n.ACR[i] = n.recordRate(fmt.Sprintf("ACR[%s]", spec.Name), plan.traceFor(spec.Src), spec.Name, &src.OnRateChange)
	n.Goodput[i] = metrics.AcquireSeries(fmt.Sprintf("goodput[%s]", spec.Name), n.clock(n.sessionShard[i]))
	n.Sources[i], n.Dests[i] = src, dest
	return src.Start(plan.engineFor(spec.Src))
}

// recordRate installs a rate observer at hook that records the rate into a
// new series and, with a recorder, emits a "rate" event for component.
func (n *GraphNet) recordRate(series string, tr *trace.Tracer, component string, hook *func(sim.Time, float64)) *metrics.Series {
	s := metrics.AcquireSeries(series, nil)
	if tr != nil {
		*hook = func(now sim.Time, r float64) {
			s.Add(now, r)
			tr.Emit(now, component, "rate", trace.F("acr", r))
		}
	} else {
		*hook = func(now sim.Time, r float64) { s.Add(now, r) }
	}
	return s
}

// attachTCP wires session i as a TCP flow: on IP access ports at router
// nodes, behind AAL5 edges at switches (data VC vc, ACK VC vc+1).
func (n *GraphNet) attachTCP(i int, vc atm.VCID) error {
	cfg, spec := &n.Config, n.Config.Sessions[i]
	params := tcp.DefaultSenderParams()
	if spec.flow.Params != nil {
		params = *spec.flow.Params
	}
	var err error
	if cfg.routers != nil {
		n.senders[i], n.receivers[i] = n.accessIP(i, params)
	} else if n.senders[i], n.receivers[i], err = n.accessAAL5(i, vc, params); err != nil {
		return err
	}
	n.Goodput[i] = metrics.AcquireSeries(fmt.Sprintf("goodput[%s]", spec.Name), n.clock(n.sessionShard[i]))
	return n.senders[i].Start(n.Engine)
}

// accessIP builds session i's TCP hosts on IP access ports: sender →
// access port → entry router, entry router → reverse access port → sender
// (ACKs); exit router → egress port → receiver, receiver → ACK access port
// → exit router.
func (n *GraphNet) accessIP(i int, params tcp.SenderParams) (*tcp.Sender, *tcp.Receiver) {
	cfg, spec := &n.Config, n.Config.Sessions[i]
	f := spec.flow
	port := func(name string, delay sim.Duration, dst ip.Sink) *ip.Port {
		p := ip.NewPort(fmt.Sprintf("%s%d", name, i), cfg.AccessRateBPS, delay, dst)
		p.Instrument(cfg.Telemetry)
		return p
	}
	snd := tcp.NewSender(i+1, params, port("in", f.AccessDelay, n.routers[spec.Src]))
	snd.Instrument(cfg.Telemetry)
	toSender := port("srcrev", f.AccessDelay, snd)
	toRecv := port("out", cfg.AccessDelay, nil)
	rcv := tcp.NewReceiver(i+1, port("ackin", cfg.AccessDelay, n.routers[spec.Dst]))
	rcv.Instrument(cfg.Telemetry)
	rcv.DelayedAcks = f.DelayedAcks
	toRecv.Dst = rcv
	walk(n.Paths[i], n.LinkPaths[i], n.ipPorts, toSender, toRecv, func(node int, fwd, rev *ip.Port) {
		n.routers[node].Route(snd.Flow, fwd, rev)
	})

	// Source Quench: deliver to the sender after the reverse-path
	// propagation from the quenching trunk back to the source.
	delay := f.AccessDelay
	for _, l := range n.LinkPaths[i] {
		p, after := n.ipPorts[l], delay
		prev := p.OnQuench
		p.OnQuench = func(en *sim.Engine, flow int) {
			if prev != nil {
				prev(en, flow)
			}
			if flow == snd.Flow {
				en.AfterFunc(after, deliverQuench, sim.Payload{Obj: snd})
			}
		}
		delay += cfg.EdgeDelay(l / 2)
	}
	return snd, rcv
}

// deliverQuench hands a propagated Source Quench to the sender; typed so a
// quench storm does not allocate a closure per signal.
func deliverQuench(e *sim.Engine, p sim.Payload) {
	p.Obj.(*tcp.Sender).Quench(e)
}

// accessAAL5 builds session i's TCP hosts across the ATM cloud: the
// sender's segments ride data VC vc from an ingress edge at S_src to an
// egress edge at S_dst, the receiver's ACKs ride ACK VC vc+1 back along the
// same path. The receiver coalesces ACKs when the flow asks for
// DelayedAcks, as on IP access ports.
func (n *GraphNet) accessAAL5(i int, vc atm.VCID, params tcp.SenderParams) (*tcp.Sender, *tcp.Receiver, error) {
	cfg, spec := &n.Config, n.Config.Sessions[i]
	snd := tcp.NewSender(i+1, params, nil)
	snd.Instrument(cfg.Telemetry)
	rcv := tcp.NewReceiver(i+1, nil)
	rcv.Instrument(cfg.Telemetry)
	rcv.DelayedAcks = spec.flow.DelayedAcks
	// edges wires one direction: its host → ingress edge → VC → egress
	// edge → dst.
	edges := func(prefix string, vc atm.VCID, back bool, inDelay, outDelay sim.Duration, dst ip.Sink) *interop.IngressEdge {
		var ingress *interop.IngressEdge
		var egress *interop.EgressEdge
		n.accessVC(i, prefix, vc, back, inDelay, outDelay, nil,
			func(turn *atmnet.Link) atm.Sink {
				egress = interop.NewEgressEdge(vc, turn, dst)
				egress.Instrument(cfg.Telemetry)
				return egress
			},
			func(in *atmnet.Link) atm.Sink {
				ingress = interop.NewIngressEdge(vc, atm.DefaultSourceParams(), in, egress)
				ingress.Instrument(cfg.Telemetry)
				return ingress.BackwardSink()
			})
		return ingress
	}
	dataIn := edges("d-", vc, false, spec.flow.AccessDelay, cfg.AccessDelay, rcv)
	dataIn.MaxQueueBytes = cfg.edgeQueueBytes
	if tr := cfg.Trace; tr != nil {
		name := fmt.Sprintf("edge%d", i)
		dataIn.OnDrop = func(now sim.Time, p *ip.Packet) {
			tr.Emit(now, name, "drop", trace.I("flow", int64(snd.Flow)), trace.I("seq", p.Seq))
		}
	}
	ackIn := edges("a-", vc+1, true, cfg.AccessDelay, spec.flow.AccessDelay, snd)
	snd.Out, rcv.Back = dataIn, ackIn
	if err := dataIn.Start(n.Engine); err != nil {
		return nil, nil, err
	}
	if err := ackIn.Start(n.Engine); err != nil {
		return nil, nil, err
	}
	n.ACR[i] = n.recordRate(fmt.Sprintf("edgeACR[%s]", spec.Name), cfg.Trace, spec.Name, &dataIn.OnRateChange)
	n.ingress[i] = dataIn
	return snd, rcv, nil
}

// clock returns shard s's sampler's clock.
func (n *GraphNet) clock(s int) *metrics.Clock { return &n.plan.state[s].clock }

// sample ticks shard s's clock and records one value into each of the
// sampled series it owns: ABR sessions count delivered cells, TCP ones
// delivered payload bits.
func (n *GraphNet) sample(s int, now sim.Time) {
	if dt := n.clock(s).Tick(now).Seconds(); dt > 0 {
		for i, g := range n.Goodput {
			if n.sessionShard[i] != s {
				continue
			}
			var cur int64
			scale := 1.0
			if d := n.Dests[i]; d != nil {
				cur = d.DataCells()
			} else {
				cur, scale = n.receivers[i].DeliveredBytes(), 8
			}
			g.Record(float64(cur-n.lastDelivered[i]) * scale / dt)
			n.lastDelivered[i] = cur
		}
	}
	for l, series := range n.LinkQueue {
		if series == nil || n.linkShard[l] != s {
			continue
		}
		series.Record(float64(n.LinkQueueLen(l)))
		if n.links != nil && n.FairShare[l] != nil {
			n.FairShare[l].Record(n.links[l].Algorithm().FairShare())
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

// Release returns every recorded series' storage and the samplers' clocks
// to the metrics pools. Call it only when all reads of the series are done
// — parameter sweeps build and discard a full network per point, and
// pooling the storage keeps a sweep's allocation cost flat. The network is
// unusable afterwards. Packets still queued or in flight when the run ended
// (in ip.Port queues, at an AAL5 ingress edge, in an edge pair's FIFO) are
// left to the collector, not drained: the packet pool is a sync.Pool, so
// such a packet is collected, never leaked, and only its reuse is lost.
func (n *GraphNet) Release() {
	for _, group := range [][]*metrics.Series{n.ACR, n.Goodput, n.LinkQueue, n.FairShare} {
		for _, s := range group {
			if s != nil {
				s.Release()
			}
		}
	}
	for s := range n.plan.state {
		n.clock(s).Release()
	}
}

// LinkQueueLen returns directed link l's current queue length.
func (n *GraphNet) LinkQueueLen(l int) int {
	if n.ipPorts != nil {
		return n.ipPorts[l].QueueLen()
	}
	return n.links[l].QueueLen()
}

// PeakLinkQueue returns the longest queue directed link l has held (cells
// or packets) if the network samples its queue (see LinkQueue), else 0.
func (n *GraphNet) PeakLinkQueue(l int) int {
	switch {
	case n.LinkQueue[l] == nil:
		return 0
	case n.ipPorts != nil:
		return n.ipPorts[l].PeakQueue()
	}
	return n.links[l].PeakQueue()
}

// LinkCapacityCPS returns directed link l's configured line rate in
// cells/s (the build-time rate; transient events change the live rate but
// not this oracle input).
func (n *GraphNet) LinkCapacityCPS(l int) float64 {
	return atm.CPS(n.Config.EdgeRateBPS(l / 2))
}

// LinkUtilization returns directed link l's lifetime utilization: what it
// sent divided by what the line could have carried.
func (n *GraphNet) LinkUtilization(l int) float64 {
	elapsed := n.Engine.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	if n.ipPorts != nil {
		return float64(n.ipPorts[l].SentBytes()) * 8 / (n.Config.EdgeRateBPS(l/2) * elapsed)
	}
	return float64(n.links[l].Sent()) / (n.LinkCapacityCPS(l) * elapsed)
}

// MeanGoodputCPS returns ABR session i's lifetime mean delivered rate.
func (n *GraphNet) MeanGoodputCPS(i int) float64 {
	elapsed := n.Engine.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(n.Dests[i].DataCells()) / elapsed
}

// MaxMinOracle returns the max-min fair session rates over the directed
// links, using each session's routed link path: cells/s between switches.
// Between routers the wire's bits/s are shared max-min and each flow keeps
// its segments' payload share of its part, MSS of every MSS+ip.HeaderBytes
// bytes, so the oracle is comparable to goodput.
func (n *GraphNet) MaxMinOracle() ([]float64, error) {
	caps := make([]float64, 2*len(n.Config.Edges))
	for l := range caps {
		if n.ipPorts != nil {
			caps[l] = n.Config.EdgeRateBPS(l / 2)
		} else {
			caps[l] = n.LinkCapacityCPS(l)
		}
	}
	rates, err := metrics.MaxMinSolve(metrics.MaxMinProblem{Capacity: caps, Sessions: n.LinkPaths})
	if err != nil || n.ipPorts == nil {
		return rates, err
	}
	for i, snd := range n.senders {
		mss := float64(snd.Params.MSS)
		rates[i] *= mss / (mss + ip.HeaderBytes)
	}
	return rates, nil
}
