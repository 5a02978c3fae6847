package scenario

import (
	"fmt"

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
// trunks, mirroring the ATM builder.
type TCPConfig struct {
	Routers int
	// TrunkRateBPS is the trunk rate in bits/s (default 10 Mb/s, a
	// mid-90s backbone trunk).
	TrunkRateBPS float64
	// TrunkDelay is the per-trunk propagation delay (default 1 ms).
	TrunkDelay sim.Duration
	// TrunkBuffer is the physical buffer per trunk port in packets
	// (default 60 — drop-tail routers drop beyond it).
	TrunkBuffer int
	// AccessRateBPS is the end-system access rate (default 100 Mb/s so the
	// trunks are the bottleneck).
	AccessRateBPS float64
	// Disc builds the queue discipline instance for each trunk port; nil
	// means plain drop-tail.
	Disc func() ip.Discipline
	// SampleEvery is the series sampling period (default 10 ms).
	SampleEvery sim.Duration
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
	if c.TrunkDelay == 0 {
		c.TrunkDelay = sim.Millisecond
	}
	if c.TrunkBuffer == 0 {
		c.TrunkBuffer = 60
	}
	if c.AccessRateBPS == 0 {
		c.AccessRateBPS = 100e6
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 10 * sim.Millisecond
	}
}

// TCPNet is a built, runnable TCP scenario.
type TCPNet struct {
	Engine    *sim.Engine
	Config    TCPConfig
	Senders   []*tcp.Sender
	Receivers []*tcp.Receiver
	Routers   []*ip.Router

	// Cwnd[i] is flow i's congestion window (bytes) over time.
	Cwnd []*metrics.Series
	// FlowRate[i] is flow i's self-measured CR (bits/s).
	FlowRate []*metrics.Series
	// Goodput[i] is flow i's delivered payload rate (bits/s), sampled.
	Goodput []*metrics.Series
	// TrunkQueue[k] is trunk k's queue (packets), sampled.
	TrunkQueue []*metrics.Series
	// MACR[k] is trunk k's Phantom MACR (bits/s) when the discipline is a
	// PhantomDiscipline; nil otherwise.
	MACR []*metrics.Series
	// PeakTrunkQueue[k] is the exact maximum backlog seen on trunk k.
	PeakTrunkQueue []int

	trunks        []*ip.Port
	lastDelivered []int64
	lastSample    sim.Time
	telFlush      engineFlush
}

// Release returns every recorded series' point storage to the metrics pool;
// call only when all reads are done. The network is unusable afterwards.
func (n *TCPNet) Release() {
	for _, s := range n.Cwnd {
		s.Release()
	}
	for _, s := range n.FlowRate {
		s.Release()
	}
	for _, s := range n.Goodput {
		s.Release()
	}
	for _, s := range n.TrunkQueue {
		s.Release()
	}
	for _, s := range n.MACR {
		if s != nil {
			s.Release()
		}
	}
}

// BuildTCP wires the scenario and starts the senders.
func BuildTCP(cfg TCPConfig) (*TCPNet, error) {
	cfg.setDefaults()
	if cfg.Routers < 2 {
		return nil, fmt.Errorf("scenario: need at least 2 routers, got %d", cfg.Routers)
	}
	if len(cfg.Flows) == 0 {
		return nil, fmt.Errorf("scenario: no flows")
	}
	for i, f := range cfg.Flows {
		if f.Entry < 0 || f.Exit >= cfg.Routers || f.Entry >= f.Exit {
			return nil, fmt.Errorf("scenario: flow %d has invalid path %d→%d", i, f.Entry, f.Exit)
		}
	}

	e := sim.NewEngine()
	n := &TCPNet{Engine: e, Config: cfg}
	hint := samplesHint(cfg.Duration, cfg.SampleEvery)
	for i := 0; i < cfg.Routers; i++ {
		n.Routers = append(n.Routers, ip.NewRouter(fmt.Sprintf("R%d", i)))
	}

	// Trunks with disciplines (forward) and plain reverse trunks for ACKs.
	fwdTrunk := make([]*ip.Port, cfg.Routers-1)
	revTrunk := make([]*ip.Port, cfg.Routers-1)
	for k := 0; k < cfg.Routers-1; k++ {
		fp := ip.NewPort(fmt.Sprintf("F%d", k), cfg.TrunkRateBPS, cfg.TrunkDelay, n.Routers[k+1])
		fp.MaxQueue = cfg.TrunkBuffer
		fp.Instrument(cfg.Telemetry)
		if cfg.Trace != nil {
			name := fp.Name
			fp.OnDrop = func(now sim.Time, p *ip.Packet, reason string) {
				cfg.Trace.Emit(now, name, "drop",
					trace.I("flow", int64(p.Flow)), trace.I("seq", p.Seq), trace.S("reason", reason))
			}
		}
		var macrSeries *metrics.Series
		if cfg.Disc != nil {
			d := cfg.Disc()
			if pd, ok := d.(*ip.PhantomDiscipline); ok {
				// MACR ticks every discipline interval, not per SampleEvery.
				macrSeries = metrics.AcquireSeries(fmt.Sprintf("MACR[F%d]", k), 0)
				ms := macrSeries
				pd.OnTick = func(now sim.Time, _, macr float64) { ms.Add(now, macr) }
			}
			fp.Attach(e, d)
		}
		rp := ip.NewPort(fmt.Sprintf("B%d", k), cfg.TrunkRateBPS, cfg.TrunkDelay, n.Routers[k])
		rp.Instrument(cfg.Telemetry)
		if cfg.TrunkLossRate > 0 {
			fp.LossRate = cfg.TrunkLossRate
			fp.LossSeed = uint64(2*k + 1)
			rp.LossRate = cfg.TrunkLossRate
			rp.LossSeed = uint64(2*k + 2)
		}
		fwdTrunk[k], revTrunk[k] = fp, rp
		n.trunks = append(n.trunks, fp)
		n.TrunkQueue = append(n.TrunkQueue, metrics.AcquireSeries(fmt.Sprintf("queue[F%d]", k), hint))
		n.MACR = append(n.MACR, macrSeries)
		n.PeakTrunkQueue = append(n.PeakTrunkQueue, 0)
		k := k
		fp.OnQueue = func(_ sim.Time, q int) {
			if q > n.PeakTrunkQueue[k] {
				n.PeakTrunkQueue[k] = q
			}
		}
	}

	for i, spec := range cfg.Flows {
		flow := i + 1
		params := tcp.DefaultSenderParams()
		if spec.Params != nil {
			params = *spec.Params
		}
		entryR, exitR := n.Routers[spec.Entry], n.Routers[spec.Exit]

		// Sender side: sender → access port → R_entry; R_entry → reverse
		// access port → sender (ACK delivery).
		toEntry := ip.NewPort(fmt.Sprintf("in%d", i), cfg.AccessRateBPS, spec.AccessDelay, entryR)
		toEntry.Instrument(cfg.Telemetry)
		snd := tcp.NewSender(flow, params, toEntry)
		snd.Instrument(cfg.Telemetry)
		toSender := ip.NewPort(fmt.Sprintf("srcrev%d", i), cfg.AccessRateBPS, spec.AccessDelay, snd)
		toSender.Instrument(cfg.Telemetry)

		// Receiver side: R_exit → egress port → receiver; receiver → ack
		// access port → R_exit.
		toRecv := ip.NewPort(fmt.Sprintf("out%d", i), cfg.AccessRateBPS, sim.Microsecond, nil)
		toRecv.Instrument(cfg.Telemetry)
		fromRecv := ip.NewPort(fmt.Sprintf("ackin%d", i), cfg.AccessRateBPS, sim.Microsecond, exitR)
		fromRecv.Instrument(cfg.Telemetry)
		rcv := tcp.NewReceiver(flow, fromRecv)
		rcv.Instrument(cfg.Telemetry)
		rcv.DelayedAcks = spec.DelayedAcks
		toRecv.Dst = rcv

		// Routes through every router on the path.
		for k := spec.Entry; k <= spec.Exit; k++ {
			var fwd, rev *ip.Port
			if k < spec.Exit {
				fwd = fwdTrunk[k]
			} else {
				fwd = toRecv
			}
			if k > spec.Entry {
				rev = revTrunk[k-1]
			} else {
				rev = toSender
			}
			n.Routers[k].Route(flow, fwd, rev)
		}

		// Source Quench: deliver to the sender after the reverse-path
		// propagation from the quenching trunk back to the source.
		for k := spec.Entry; k < spec.Exit; k++ {
			port := fwdTrunk[k]
			hops := k - spec.Entry
			delay := spec.AccessDelay + sim.Duration(hops)*cfg.TrunkDelay
			flow := flow
			snd := snd
			prev := port.OnQuench
			port.OnQuench = func(en *sim.Engine, f int) {
				if prev != nil {
					prev(en, f)
				}
				if f != flow {
					return
				}
				en.AfterFunc(delay, deliverQuench, sim.Payload{Obj: snd})
			}
		}

		// cwnd and CR change per ACK and rate tick, not per SampleEvery:
		// their storage grows with the points they record.
		cwnd := metrics.AcquireSeries(fmt.Sprintf("cwnd[%s]", spec.Name), 0)
		snd.OnCwnd = func(now sim.Time, w float64) { cwnd.Add(now, w) }
		rate := metrics.AcquireSeries(fmt.Sprintf("CR[%s]", spec.Name), 0)
		snd.OnRate = func(now sim.Time, r float64) { rate.Add(now, r) }

		n.Cwnd = append(n.Cwnd, cwnd)
		n.FlowRate = append(n.FlowRate, rate)
		n.Goodput = append(n.Goodput, metrics.AcquireSeries(fmt.Sprintf("goodput[%s]", spec.Name), hint))
		n.Senders = append(n.Senders, snd)
		n.Receivers = append(n.Receivers, rcv)
		n.lastDelivered = append(n.lastDelivered, 0)

		if err := snd.Start(e); err != nil {
			return nil, fmt.Errorf("scenario: flow %d: %w", i, err)
		}
	}

	e.Every(cfg.SampleEvery, func(en *sim.Engine) { n.sample(en.Now()) })
	return n, nil
}

// deliverQuench hands a propagated Source Quench to the sender; typed so a
// quench storm does not allocate a closure per signal.
func deliverQuench(e *sim.Engine, p sim.Payload) {
	p.Obj.(*tcp.Sender).Quench(e)
}

// sample records the sampled series.
func (n *TCPNet) sample(now sim.Time) {
	dt := now.Sub(n.lastSample).Seconds()
	n.lastSample = now
	for i, r := range n.Receivers {
		cur := r.DeliveredBytes()
		if dt > 0 {
			n.Goodput[i].Add(now, float64(cur-n.lastDelivered[i])*8/dt)
		}
		n.lastDelivered[i] = cur
	}
	for k, p := range n.trunks {
		n.TrunkQueue[k].Add(now, float64(p.QueueLen()))
	}
}

// Run executes the scenario for d of simulated time (cumulative) and folds
// the engine's event statistics into the telemetry registry.
func (n *TCPNet) Run(d sim.Duration) {
	n.Engine.RunUntil(n.Engine.Now().Add(d))
	n.telFlush.flush(n.Config.Telemetry, n.Engine)
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

// TrunkUtilization returns trunk k's lifetime utilization.
func (n *TCPNet) TrunkUtilization(k int) float64 {
	elapsed := n.Engine.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(n.trunks[k].SentBytes()) * 8 / (n.Config.TrunkRateBPS * elapsed)
}

// TrunkDrops returns the drop count on trunk k: injected loss, discipline
// and tail drops together (ip.Port.Dropped).
func (n *TCPNet) TrunkDrops(k int) int64 { return n.trunks[k].Dropped() }

// SetTrunkDropObserver installs fn as trunk k's drop observer, chaining any
// observer already present. Experiments use it to classify drops.
func (n *TCPNet) SetTrunkDropObserver(k int, fn func(now sim.Time, p *ip.Packet, reason string)) {
	prev := n.trunks[k].OnDrop
	n.trunks[k].OnDrop = func(now sim.Time, p *ip.Packet, reason string) {
		if prev != nil {
			prev(now, p, reason)
		}
		fn(now, p, reason)
	}
}

// MaxMinOracle returns the max-min fair payload rates (bits/s) for the
// flows over the trunk capacities, discounted by the header overhead so the
// oracle is comparable to goodput.
func (n *TCPNet) MaxMinOracle() ([]float64, error) {
	nTrunks := n.Config.Routers - 1
	caps := make([]float64, nTrunks)
	for k := range caps {
		caps[k] = n.Config.TrunkRateBPS * 512.0 / 552.0 // payload share of wire bits
	}
	var flows [][]int
	for _, f := range n.Config.Flows {
		var path []int
		for k := f.Entry; k < f.Exit; k++ {
			path = append(path, k)
		}
		flows = append(flows, path)
	}
	return metrics.MaxMinSolve(metrics.MaxMinProblem{Capacity: caps, Sessions: flows})
}
