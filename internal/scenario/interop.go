package scenario

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/atmnet"
	"repro/internal/interop"
	"repro/internal/ip"
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
type InteropConfig struct {
	// TrunkRateBPS is the ATM trunk rate (default 150 Mb/s).
	TrunkRateBPS float64
	// TrunkDelay is the trunk propagation delay (default 1 ms).
	TrunkDelay sim.Duration
	// Alg builds the trunk algorithm (default Phantom would be supplied by
	// the caller; nil runs plain FIFO trunks).
	Alg switchalg.Factory
	// EdgeQueueBytes bounds each ingress edge's segmentation queue
	// (default 128 KiB).
	EdgeQueueBytes int
	// SampleEvery is the series sampling period (default 10 ms).
	SampleEvery sim.Duration
	// Trace, if non-nil, records edge-queue drops and edge rate changes.
	Trace *trace.Tracer
	// Telemetry, if non-nil, receives the scenario's counters: links,
	// switches, edges, senders and receivers register class-level handles,
	// and Run folds the engine's event statistics in when it returns.
	Telemetry *telemetry.Registry
	Flows     []TCPFlowSpec // Entry/Exit are ignored: the cloud is one hop
}

func (c *InteropConfig) setDefaults() {
	if c.TrunkRateBPS == 0 {
		c.TrunkRateBPS = 150e6
	}
	if c.TrunkDelay == 0 {
		c.TrunkDelay = sim.Millisecond
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 10 * sim.Millisecond
	}
}

// InteropNet is a built TCP-over-ATM scenario.
type InteropNet struct {
	Engine    *sim.Engine
	Config    InteropConfig
	Senders   []*tcp.Sender
	Receivers []*tcp.Receiver
	Ingress   []*interop.IngressEdge // data-direction edges, one per flow

	// EdgeACR[i] is flow i's data-VC allowed cell rate over time.
	EdgeACR []*metrics.Series
	// Goodput[i] is flow i's delivered payload rate (bits/s), sampled.
	Goodput []*metrics.Series
	// TrunkQueue is the forward trunk's queue (cells), sampled.
	TrunkQueue *metrics.Series

	trunk         *atmnet.Link
	lastDelivered []int64
	lastSample    sim.Time
	telFlush      engineFlush
}

// BuildTCPOverATM wires the interop scenario.
func BuildTCPOverATM(cfg InteropConfig) (*InteropNet, error) {
	cfg.setDefaults()
	if len(cfg.Flows) == 0 {
		return nil, fmt.Errorf("scenario: no flows")
	}

	e := sim.NewEngine()
	n := &InteropNet{Engine: e, Config: cfg}
	s0, s1 := atmnet.NewSwitch("S0"), atmnet.NewSwitch("S1")
	s0.Instrument(cfg.Telemetry)
	s1.Instrument(cfg.Telemetry)

	trunkCPS := atm.CPS(cfg.TrunkRateBPS)
	fl := atmnet.NewLink("F", trunkCPS, cfg.TrunkDelay, s1)
	rl := atmnet.NewLink("R", trunkCPS, cfg.TrunkDelay, s0)
	fl.Instrument(cfg.Telemetry)
	rl.Instrument(cfg.Telemetry)
	var fAlg, rAlg switchalg.Algorithm
	if cfg.Alg != nil {
		fAlg = cfg.Alg()
		rAlg = cfg.Alg()
	}
	instrumentAlg(fAlg, cfg.Telemetry)
	instrumentAlg(rAlg, cfg.Telemetry)
	fwdPort := s0.AddPort(e, fl, fAlg)
	revPort := s1.AddPort(e, rl, rAlg)
	n.trunk = fl
	n.TrunkQueue = metrics.NewSeries("queue[F]")

	accessCPS := atm.CPS(cfg.TrunkRateBPS)
	for i, spec := range cfg.Flows {
		flow := i + 1
		dataVC := atm.VCID(2*i + 1)
		ackVC := atm.VCID(2*i + 2)
		params := tcp.DefaultSenderParams()
		if spec.Params != nil {
			params = *spec.Params
		}

		// --- data direction: sender → ingress edge → S0 → S1 → egress →
		// receiver ---
		inEdge := interop.NewIngressEdge(dataVC, atm.DefaultSourceParams(), nil)
		inEdge.MaxQueueBytes = cfg.EdgeQueueBytes
		inEdge.Instrument(cfg.Telemetry)
		if cfg.Trace != nil {
			name := fmt.Sprintf("edge%d", i)
			flow := flow
			inEdge.OnDrop = func(now sim.Time, p *ip.Packet) {
				cfg.Trace.Emit(now, name, "drop",
					trace.I("flow", int64(flow)), trace.I("seq", p.Seq))
			}
		}
		toS0 := atmnet.NewLink(fmt.Sprintf("d-in%d", i), accessCPS, spec.AccessDelay, s0)
		toS0.Instrument(cfg.Telemetry)
		inEdge.Out = toS0

		// IP access: sender → edge (direct; the access serialisation is
		// dominated by the edge pacing).
		snd := tcp.NewSender(flow, params, inEdge)
		snd.Instrument(cfg.Telemetry)

		// Egress side.
		backToS1 := atmnet.NewLink(fmt.Sprintf("d-back%d", i), accessCPS, sim.Microsecond, s1)
		backToS1.Instrument(cfg.Telemetry)
		var rcv *tcp.Receiver // bound below
		outEdge := interop.NewEgressEdge(dataVC, backToS1, ip.SinkFunc(func(en *sim.Engine, p *ip.Packet) {
			rcv.Receive(en, p)
		}))
		outEdge.Instrument(cfg.Telemetry)
		toEgress := atmnet.NewLink(fmt.Sprintf("d-out%d", i), accessCPS, sim.Microsecond, outEdge)
		toEgress.Instrument(cfg.Telemetry)
		bwdToIngress := atmnet.NewLink(fmt.Sprintf("d-rm%d", i), accessCPS, spec.AccessDelay, inEdge.BackwardSink())
		bwdToIngress.Instrument(cfg.Telemetry)
		bwdToIngressPort := s0.AddPort(e, bwdToIngress, nil)
		egressPort := s1.AddPort(e, toEgress, nil)
		s0.Route(dataVC, fwdPort, bwdToIngressPort)
		s1.Route(dataVC, egressPort, revPort)

		// --- ACK direction: receiver → ingress edge (at S1) → S1 → S0 →
		// egress → sender ---
		ackInEdge := interop.NewIngressEdge(ackVC, atm.DefaultSourceParams(), nil)
		ackInEdge.Instrument(cfg.Telemetry)
		toS1 := atmnet.NewLink(fmt.Sprintf("a-in%d", i), accessCPS, sim.Microsecond, s1)
		toS1.Instrument(cfg.Telemetry)
		ackInEdge.Out = toS1
		rcv = tcp.NewReceiver(flow, ackInEdge)
		rcv.Instrument(cfg.Telemetry)

		backToS0 := atmnet.NewLink(fmt.Sprintf("a-back%d", i), accessCPS, sim.Microsecond, s0)
		backToS0.Instrument(cfg.Telemetry)
		ackOutEdge := interop.NewEgressEdge(ackVC, backToS0, ip.SinkFunc(func(en *sim.Engine, p *ip.Packet) {
			snd.Receive(en, p)
		}))
		ackOutEdge.Instrument(cfg.Telemetry)
		toAckEgress := atmnet.NewLink(fmt.Sprintf("a-out%d", i), accessCPS, spec.AccessDelay, ackOutEdge)
		toAckEgress.Instrument(cfg.Telemetry)
		bwdToAckIngress := atmnet.NewLink(fmt.Sprintf("a-rm%d", i), accessCPS, sim.Microsecond, ackInEdge.BackwardSink())
		bwdToAckIngress.Instrument(cfg.Telemetry)
		bwdToAckIngressPort := s1.AddPort(e, bwdToAckIngress, nil)
		ackEgressPort := s0.AddPort(e, toAckEgress, nil)
		// For the ACK VC, "forward" is S1→S0.
		s1.Route(ackVC, revPort, bwdToAckIngressPort)
		s0.Route(ackVC, ackEgressPort, fwdPort)

		if err := inEdge.Start(e); err != nil {
			return nil, err
		}
		if err := ackInEdge.Start(e); err != nil {
			return nil, err
		}

		acr := metrics.NewSeries(fmt.Sprintf("edgeACR[%s]", spec.Name))
		if cfg.Trace != nil {
			name := spec.Name
			inEdge.OnRateChange = func(now sim.Time, r float64) {
				acr.Add(now, r)
				cfg.Trace.Emit(now, name, "rate", trace.F("acr", r))
			}
		} else {
			inEdge.OnRateChange = func(now sim.Time, r float64) { acr.Add(now, r) }
		}
		n.EdgeACR = append(n.EdgeACR, acr)
		n.Goodput = append(n.Goodput, metrics.NewSeries(fmt.Sprintf("goodput[%s]", spec.Name)))
		n.Ingress = append(n.Ingress, inEdge)
		n.Senders = append(n.Senders, snd)
		n.Receivers = append(n.Receivers, rcv)
		n.lastDelivered = append(n.lastDelivered, 0)

		if err := snd.Start(e); err != nil {
			return nil, err
		}
	}

	e.Every(cfg.SampleEvery, func(en *sim.Engine) { n.sample(en.Now()) })
	return n, nil
}

func (n *InteropNet) sample(now sim.Time) {
	dt := now.Sub(n.lastSample).Seconds()
	n.lastSample = now
	for i, r := range n.Receivers {
		cur := r.DeliveredBytes()
		if dt > 0 {
			n.Goodput[i].Add(now, float64(cur-n.lastDelivered[i])*8/dt)
		}
		n.lastDelivered[i] = cur
	}
	n.TrunkQueue.Add(now, float64(n.trunk.QueueLen()))
}

// Run executes the scenario for d of simulated time (cumulative) and folds
// the engine's event statistics into the telemetry registry.
func (n *InteropNet) Run(d sim.Duration) {
	n.Engine.RunUntil(n.Engine.Now().Add(d))
	n.telFlush.flush(n.Config.Telemetry, n.Engine)
}

// TrunkUtilization returns the forward trunk's lifetime utilization.
func (n *InteropNet) TrunkUtilization() float64 {
	elapsed := n.Engine.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(n.trunk.Sent()) / (atm.CPS(n.Config.TrunkRateBPS) * elapsed)
}
