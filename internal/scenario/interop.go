package scenario

import (
	"repro/internal/interop"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// InteropConfig describes the TCP-over-ATM topology of §4.2: TCP end
// systems whose traffic crosses a two-switch ATM cloud, one data VC and one
// ACK VC per flow, with a rate-control algorithm on the cloud's trunks.
// The cloud's shape is fixed (see lower); the config holds only what some
// experiment sets.
type InteropConfig struct {
	// Alg builds the trunk algorithm (default Phantom would be supplied by
	// the caller; nil runs plain FIFO trunks).
	Alg switchalg.Factory
	// EdgeQueueBytes bounds each ingress edge's segmentation queue
	// (default 128 KiB).
	EdgeQueueBytes int
	// Trace, if non-nil, records edge-queue drops and edge rate changes.
	Trace *trace.Tracer
	// Telemetry, if non-nil, receives the scenario's counters: links,
	// switches, edges, senders and receivers register class-level handles,
	// and Run folds the engine's event statistics in when it returns.
	Telemetry *telemetry.Registry
	Flows     []TCPFlowSpec // Entry/Exit are ignored: the cloud is one hop
}

// lower renders the cloud as the graph it is: two switches joined by one
// 150 Mb/s trunk of 1 ms propagation delay, sampled every 10 ms, and flow
// i an AAL5 session from switch 0 to switch 1. Access links run at the
// trunk rate (the graph's default); the receiver side's delay is the
// graph's 1 µs default.
func (c *InteropConfig) lower() GraphConfig {
	g := GraphConfig{
		Nodes:          2,
		Edges:          chainEdges(2),
		TrunkRateBPS:   150e6,
		TrunkDelay:     sim.Millisecond,
		Alg:            c.Alg,
		SampleEvery:    10 * sim.Millisecond,
		Trace:          c.Trace,
		Telemetry:      c.Telemetry,
		Sessions:       make([]GraphSessionSpec, len(c.Flows)),
		edgeQueueBytes: c.EdgeQueueBytes,
	}
	for i := range c.Flows {
		f := &c.Flows[i]
		g.Sessions[i] = GraphSessionSpec{Name: f.Name, Src: 0, Dst: 1, flow: f}
	}
	return g
}

// InteropNet is a built TCP-over-ATM scenario: the two-switch graph that
// runs it plus a flow-indexed view (Goodput[i], payload bits/s, is the
// graph's).
type InteropNet struct {
	*GraphNet
	// Config is the cloud description the network was built from.
	Config    InteropConfig
	Senders   []*tcp.Sender
	Receivers []*tcp.Receiver
	Ingress   []*interop.IngressEdge // data-direction edges, one per flow

	// EdgeACR[i] is flow i's data-VC allowed cell rate over time.
	EdgeACR []*metrics.Series
}

// BuildTCPOverATM wires the interop scenario and starts the edges and
// senders.
func BuildTCPOverATM(cfg InteropConfig) (*InteropNet, error) {
	g, err := BuildGraph(cfg.lower())
	if err != nil {
		return nil, err
	}
	return &InteropNet{GraphNet: g, Config: cfg, Senders: g.senders, Receivers: g.receivers,
		Ingress: g.ingress, EdgeACR: g.ACR}, nil
}

// TrunkUtilization returns the forward trunk's lifetime utilization.
func (n *InteropNet) TrunkUtilization() float64 { return n.LinkUtilization(0) }
