package scenario

import (
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TCPFlowSpec declares one greedy Reno flow over the linear router network:
// it enters at router Entry and exits at router Exit (Entry < Exit).
// AccessDelay sets the flow's private access-link propagation delay, the
// knob that produces the heterogeneous RTTs of Fig. 14.
type TCPFlowSpec struct {
	Name        string
	Entry       int
	Exit        int
	AccessDelay sim.Duration
	// Params overrides the sender parameters; nil uses the paper's
	// defaults (greedy, 512-byte segments).
	Params *tcp.SenderParams
	// DelayedAcks enables RFC 1122 ACK coalescing at the receiver.
	DelayedAcks bool
}

// TCPConfig describes a linear IP network of Routers routers chained by
// trunks. Like ATMConfig it is a way to describe a network, not a second way
// to build one: BuildTCP builds the router graph lower turns it into. The
// chain's fixed shape (1 ms trunks, 100 Mb/s access links, 10 ms
// sampling) is written by lower; the config holds only what some
// experiment sets.
type TCPConfig struct {
	Routers int
	// TrunkRateBPS is the trunk rate in bits/s (default 10 Mb/s, a
	// mid-90s backbone trunk).
	TrunkRateBPS float64
	// TrunkBuffer is the physical buffer per trunk port in packets
	// (default 60 — drop-tail routers drop beyond it).
	TrunkBuffer int
	// Disc builds the queue discipline instance for each trunk port; nil
	// means plain drop-tail.
	Disc func() ip.Discipline
	// Duration, when set, is the planned run length — a sizing hint letting
	// the recorded series pre-allocate their points (see ATMConfig.Duration).
	Duration sim.Duration
	// TrunkLossRate injects random packet loss on every trunk (both
	// directions) for failure testing. Zero disables injection.
	TrunkLossRate float64
	// Trace, if non-nil, records trunk drops (flow, sequence, reason).
	Trace *trace.Tracer
	// Telemetry, if non-nil, receives the scenario's counters: ports,
	// senders and receivers register class-level handles, and Run folds the
	// engine's event statistics in when it returns.
	Telemetry *telemetry.Registry
	Flows     []TCPFlowSpec
}

func (c *TCPConfig) setDefaults() {
	if c.TrunkRateBPS == 0 {
		c.TrunkRateBPS = 10e6
	}
	if c.TrunkBuffer == 0 {
		c.TrunkBuffer = 60
	}
}

// lower renders the router chain as the graph it is: router i is node i,
// trunk k is edge k joining nodes k and k+1 (its forward half carries the
// data, its reverse half the ACKs), and flow i is session i routed
// Entry→Exit. Trunks have 1 ms of propagation delay, access links run at
// 100 Mb/s so the trunks are the bottleneck, and series are sampled every
// 10 ms.
func (c *TCPConfig) lower() GraphConfig {
	g := GraphConfig{
		Nodes:         c.Routers,
		Edges:         chainEdges(c.Routers),
		TrunkRateBPS:  c.TrunkRateBPS,
		TrunkDelay:    sim.Millisecond,
		AccessRateBPS: 100e6,
		SampleEvery:   10 * sim.Millisecond,
		Duration:      c.Duration,
		TrunkLossRate: c.TrunkLossRate,
		Trace:         c.Trace,
		Telemetry:     c.Telemetry,
		Sessions:      make([]GraphSessionSpec, len(c.Flows)),
		routers:       &routerNodes{buffer: c.TrunkBuffer, disc: c.Disc},
	}
	for i := range c.Flows {
		f := &c.Flows[i]
		g.Sessions[i] = GraphSessionSpec{Name: f.Name, Src: f.Entry, Dst: f.Exit, flow: f}
	}
	return g
}

// TCPNet is a built, runnable TCP scenario: the router graph that runs it
// plus a trunk-indexed view (Goodput[i], payload bits/s, is the graph's).
type TCPNet struct {
	chain
	// Config is the chain description the network was built from, with
	// its defaults filled in.
	Config    TCPConfig
	Senders   []*tcp.Sender
	Receivers []*tcp.Receiver
	// MACR[k] is trunk k's Phantom MACR (bits/s) when the discipline is a
	// PhantomDiscipline; nil otherwise.
	MACR []*metrics.Series
}

// BuildTCP wires the scenario and starts the senders.
func BuildTCP(cfg TCPConfig) (*TCPNet, error) {
	cfg.setDefaults()
	c, err := buildChain(cfg.lower(), "routers")
	if err != nil {
		return nil, err
	}
	return &TCPNet{chain: c, Config: cfg, Senders: c.senders, Receivers: c.receivers,
		MACR: trunks(c.FairShare)}, nil
}

// MeanGoodputBPS returns flow i's lifetime mean delivered payload rate in
// bits/s, counting only time after the flow's start.
func (n *TCPNet) MeanGoodputBPS(i int) float64 {
	var start sim.Time
	if p := n.Config.Flows[i].Params; p != nil {
		start = p.Start
	}
	elapsed := n.Engine.Now().Sub(start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(n.Receivers[i].DeliveredBytes()) * 8 / elapsed
}

// TrunkDrops returns the drop count on trunk k: injected loss, discipline
// and tail drops together (ip.Port.Dropped).
func (n *TCPNet) TrunkDrops(k int) int64 { return n.ipPorts[2*k].Dropped() }

// SetTrunkDropObserver installs fn as trunk k's drop observer, chaining any
// observer already present. Experiments use it to classify drops.
func (n *TCPNet) SetTrunkDropObserver(k int, fn func(now sim.Time, p *ip.Packet, reason string)) {
	p := n.ipPorts[2*k]
	prev := p.OnDrop
	p.OnDrop = func(now sim.Time, pkt *ip.Packet, reason string) {
		if prev != nil {
			prev(now, pkt, reason)
		}
		fn(now, pkt, reason)
	}
}
