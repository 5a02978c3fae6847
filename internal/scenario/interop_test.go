package scenario

import (
	"math"
	"testing"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/interop"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/tcp"
	"repro/internal/telemetry"
)

func TestBuildTCPOverATMValidation(t *testing.T) {
	if _, err := BuildTCPOverATM(InteropConfig{}); err == nil {
		t.Error("no flows accepted")
	}
}

// A single TCP flow crosses the ATM cloud end-to-end: segmentation,
// RM loop, reassembly and the ACK VC must all function.
func TestTCPOverATMSingleFlow(t *testing.T) {
	n, err := BuildTCPOverATM(InteropConfig{
		Alg: switchalg.NewPhantom(core.Config{}),
		Flows: []TCPFlowSpec{
			{Name: "f0", AccessDelay: sim.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(2 * sim.Second)
	if n.Receivers[0].DeliveredBytes() == 0 {
		t.Fatal("nothing crossed the cloud")
	}
	// The data VC's edge ACR must have been clamped by the cloud to the
	// k=2 phantom equilibrium (data VC + ack VC share the forward trunk?
	// no: the ack VC's data flows on the reverse trunk, so the forward
	// trunk carries only this VC plus backward RM cells of the ack VC:
	// k=1 → u·C_t/(1+u) ≈ 280k cells/s).
	acr := n.EdgeACR[0].Last()
	if acr <= 0 {
		t.Fatal("edge ACR never adjusted")
	}
	// TCP must get meaningful goodput through the 150 Mb/s cloud. The
	// 64 KiB window over the ≈4 ms RTT caps it at ≈130 Mb/s; expect well
	// above 10 Mb/s.
	if g := meanGoodputBPS(n, 0); g < 10e6 {
		t.Fatalf("goodput across the cloud = %.2f Mb/s", g/1e6)
	}
}

// The §4.2 claim: two TCP flows with very different RTTs crossing the same
// ATM cloud get fair shares, because the cloud's Phantom switches allocate
// per-VC rates — fairness no longer depends on the TCP loss dynamics.
func TestTCPOverATMFairAcrossRTTs(t *testing.T) {
	// Windows large enough that neither flow is receiver-window limited
	// (the long flow's BDP across the cloud is ≈450 KB at line rate);
	// otherwise the cloud correctly gives the window-limited flow less.
	big := tcp.DefaultSenderParams()
	big.RcvWnd = 2 * 1024 * 1024
	n, err := BuildTCPOverATM(InteropConfig{
		Alg: switchalg.NewPhantom(core.Config{}),
		Flows: []TCPFlowSpec{
			{Name: "short", AccessDelay: 500 * sim.Microsecond, Params: &big},
			{Name: "long", AccessDelay: 10 * sim.Millisecond, Params: &big},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(5 * sim.Second)
	g := []float64{meanGoodputBPS(n, 0), meanGoodputBPS(n, 1)}
	if g[0] == 0 || g[1] == 0 {
		t.Fatalf("a flow starved: %v", g)
	}
	// Edge ACRs (the cloud's allocation) must be equal.
	a := []float64{n.EdgeACR[0].Last(), n.EdgeACR[1].Last()}
	if idx := metrics.JainIndex(a); idx < 0.98 {
		t.Errorf("cloud allocated unequal rates: %v (Jain %v)", a, idx)
	}
}

func TestTCPOverATMDeterminism(t *testing.T) {
	runOnce := func() []float64 {
		n, err := BuildTCPOverATM(InteropConfig{
			Alg:   switchalg.NewPhantom(core.Config{}),
			Flows: []TCPFlowSpec{{Name: "f", AccessDelay: sim.Millisecond}},
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Run(2 * sim.Second)
		return []float64{
			float64(n.Receivers[0].DeliveredBytes()),
			n.EdgeACR[0].Last(),
			float64(n.Ingress[0].CellsSent()),
		}
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %v vs %v", i, a, b)
		}
	}
}

// The edge pairs of a lossy cloud leak no datagram. Senders stop at 4 s
// and the run goes on until the cloud is empty, so every surviving cell has
// arrived. Then every end-of-packet cell an ingress edge sent was
// reassembled or corrupted (it survived the trunk), or its datagram was
// reclaimed (the cell was lost, and a later one on the VC arrived), or the
// datagram is still held. What is held is only what was sent after the
// last end-of-packet cell to arrive, and each of those cells was lost: the
// datagrams the egress cannot yet know are gone.
func TestLossyCloudLeaksNothing(t *testing.T) {
	reg := telemetry.New()
	cfg := InteropConfig{Alg: switchalg.NewPhantom(core.Config{}), Telemetry: reg}
	for i := 0; i < 8; i++ {
		p := tcp.DefaultSenderParams()
		p.Stop = sim.Time(4 * sim.Second)
		cfg.Flows = append(cfg.Flows, TCPFlowSpec{Name: string(rune('a' + i)),
			AccessDelay: sim.Duration(1+3*i) * sim.Millisecond, Params: &p, DelayedAcks: i%2 == 1})
	}
	g := cfg.lower()
	g.TrunkLossRate = 0.01
	n, err := BuildGraph(g)
	if err != nil {
		t.Fatal(err)
	}

	// Tap every ingress edge's output for the handles it sends, and the
	// two trunks' far ends for the handles that survive them.
	type pair struct {
		in   *interop.IngressEdge
		sent uint32
	}
	var pairs []*pair
	var lastSend sim.Time
	for i := range cfg.Flows {
		for _, in := range []*interop.IngressEdge{n.ingress[i], n.receivers[i].Back.(*interop.IngressEdge)} {
			p, out := &pair{in: in}, in.Out
			in.Out = atm.SinkFunc(func(e *sim.Engine, c atm.Cell) {
				if c.EndOfPacket {
					if c.Handle != p.sent {
						t.Fatalf("VC %d: handle %d sent as the %dth", c.VC, c.Handle, p.sent)
					}
					p.sent++
				}
				lastSend = e.Now()
				out.Receive(e, c)
			})
			pairs = append(pairs, p)
		}
	}
	survived := map[atm.VCID]map[uint32]bool{}
	for _, l := range n.links {
		dst := l.Dst
		l.Dst = atm.SinkFunc(func(e *sim.Engine, c atm.Cell) {
			if c.EndOfPacket {
				if survived[c.VC] == nil {
					survived[c.VC] = map[uint32]bool{}
				}
				survived[c.VC][c.Handle] = true
			}
			dst.Receive(e, c)
		})
	}
	const end = sim.Time(5 * sim.Second)
	n.Run(sim.Duration(end))
	if end.Sub(lastSend) < 500*sim.Millisecond {
		t.Fatalf("edges still sending at %v: the cloud has not drained", lastSend)
	}

	var sent, arrived, reclaimed, held int
	for _, p := range pairs {
		h := p.in.Held()
		taken := int(p.sent) - h // datagrams the egress has resolved
		if taken < 0 {
			t.Fatalf("VC %d holds %d datagrams of %d sent", p.in.VC, h, p.sent)
		}
		if taken > 0 && !survived[p.in.VC][uint32(taken-1)] {
			t.Errorf("VC %d: datagram %d resolved, but its end-of-packet cell never arrived", p.in.VC, taken-1)
		}
		for k := 0; k < int(p.sent); k++ {
			switch ok := survived[p.in.VC][uint32(k)]; {
			case k >= taken && ok:
				t.Errorf("VC %d: datagram %d still held after its end-of-packet cell arrived", p.in.VC, k)
			case ok:
				arrived++
			case k < taken:
				reclaimed++
			}
		}
		sent += int(p.sent)
		held += h
	}
	snap := reg.Snapshot()
	if got := int(snap["edge.pkts_reassembled"] + snap["edge.pkts_corrupted"]); got != arrived {
		t.Errorf("egress edges reassembled or corrupted %d datagrams, %d end-of-packet cells arrived", got, arrived)
	}
	if sent != arrived+reclaimed+held {
		t.Errorf("%d sent ≠ %d arrived + %d reclaimed + %d held", sent, arrived, reclaimed, held)
	}
	t.Logf("%d datagrams: %d reassembled, %d corrupted, %d reclaimed, %d held",
		sent, snap["edge.pkts_reassembled"], snap["edge.pkts_corrupted"], reclaimed, held)
	if reclaimed == 0 || snap["edge.pkts_corrupted"] == 0 {
		t.Error("the loss never cost an end-of-packet cell or a middle cell")
	}
}

// Sessions take at most two VCs each, and VCs are int32s.
func TestVCSpaceBounded(t *testing.T) {
	if err := checkVCSpace(math.MaxInt32 / 2); err != nil {
		t.Fatalf("%d sessions rejected: %v", math.MaxInt32/2, err)
	}
	if err := checkVCSpace(math.MaxInt32/2 + 1); err == nil {
		t.Fatalf("%d sessions accepted: session %d's ACK VC is 2^31", math.MaxInt32/2+1, math.MaxInt32/2)
	}
}

// meanGoodputBPS returns flow i's lifetime mean delivered payload rate.
func meanGoodputBPS(n *InteropNet, i int) float64 {
	return float64(n.Receivers[i].DeliveredBytes()) * 8 / n.Engine.Now().Seconds()
}
