package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/tcp"
	"repro/internal/workload"
)

// The E18+ experiments go beyond the paper's figures: they probe claims the
// paper makes in prose. E18 quantifies the price of constant space against
// an unbounded-space exact max-min allocator (the paper's own taxonomy,
// Section 1); E19 reproduces the Section 4 claim that two Vegas sources
// with identical thresholds do not balance, and that Selective Discard
// balances them.

// minOf returns the smallest of its arguments.
func minOf(xs ...float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func init() {
	register(Definition{
		ID: "E20", PaperRef: "§4.2 / abstract (TCP–ATM interconnection)",
		Default: 10 * sim.Second,
		Title:   "TCP over an ATM cloud: consistent flow control gives RTT-independent fairness",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E20", Summary: map[string]float64{}}
			d := o.duration(10 * sim.Second)

			big := tcp.DefaultSenderParams()
			big.RcvWnd = 2 * 1024 * 1024
			flows := []scenario.TCPFlowSpec{
				{Name: "short", Entry: 0, Exit: 1, AccessDelay: 500 * sim.Microsecond, Params: &big},
				{Name: "long", Entry: 0, Exit: 1, AccessDelay: 10 * sim.Millisecond, Params: &big},
			}

			// Through the ATM cloud with Phantom on the trunks.
			cloud, err := scenario.BuildTCPOverATM(scenario.InteropConfig{
				Alg:       switchalg.NewPhantom(core.Config{}),
				Flows:     flows,
				Telemetry: o.Telemetry,
				Trace:     o.Trace,
			})
			if err != nil {
				return nil, err
			}
			cloud.Run(d)

			// The same flows through a drop-tail IP router at the same
			// 150 Mb/s bottleneck for contrast.
			routed, err := runTCP(scenario.TCPConfig{
				Routers: 2, TrunkRateBPS: 150e6, TrunkBuffer: 600,
				Flows: flows,
			}, d, o)
			if err != nil {
				return nil, err
			}

			// Measure the settled second half: both substrates take an
			// initial slow-start loss burst (the long flow can sit out a
			// full RTO before converging).
			tail := func(s *metrics.Series, end sim.Time) float64 {
				return s.TimeAvg(sim.Time(d/2), end)
			}
			gCloud := []float64{
				tail(cloud.Goodput[0], cloud.Engine.Now()),
				tail(cloud.Goodput[1], cloud.Engine.Now()),
			}
			gIP := []float64{
				tail(routed.Goodput[0], routed.Engine.Now()),
				tail(routed.Goodput[1], routed.Engine.Now()),
			}
			res.Summary["jain_atm_cloud"] = metrics.JainIndex(gCloud)
			res.Summary["jain_ip_droptail"] = metrics.JainIndex(gIP)
			res.Summary["edge_acr_jain"] = metrics.JainIndex([]float64{
				cloud.EdgeACR[0].Last(), cloud.EdgeACR[1].Last()})
			res.Summary["util_atm_trunk"] = cloud.TrunkUtilization()
			if !o.Quiet {
				tb := plot.NewTable("E20: mixed-RTT TCP flows, ATM cloud vs drop-tail router",
					"substrate", "short(Mb/s)", "long(Mb/s)", "Jain")
				tb.AddRow("ATM cloud (Phantom)", gCloud[0]/1e6, gCloud[1]/1e6, metrics.JainIndex(gCloud))
				tb.AddRow("IP drop-tail", gIP[0]/1e6, gIP[1]/1e6, metrics.JainIndex(gIP))
				res.Tables = append(res.Tables, tb.Render())
			}
			res.addf("paper (abstract/§4.2): 'a unifying interconnection between TCP routers and ATM networks' — consistent rate control across both worlds")
			res.addf("measured: Jain %.3f through the Phantom cloud vs %.3f through drop-tail; cloud allocations equal (Jain %.3f)",
				res.Summary["jain_atm_cloud"], res.Summary["jain_ip_droptail"], res.Summary["edge_acr_jain"])
			return res, nil
		},
	})

	register(Definition{
		ID: "E18", PaperRef: "§1 taxonomy (constant vs unbounded space)",
		Default: 800 * sim.Millisecond,
		Title:   "Price of constant space: Phantom vs the per-VC allocators (ERICA, exact max-min)",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E18", Summary: map[string]float64{}}
			d := o.duration(800 * sim.Millisecond)

			parkingLot := func(alg switchalg.Factory) scenario.ATMConfig {
				return scenario.ATMConfig{
					Switches: 4,
					Alg:      alg,
					Sessions: []scenario.ATMSessionSpec{
						{Name: "long", Entry: 0, Exit: 3, Pattern: workload.Greedy{}},
						{Name: "short0", Entry: 0, Exit: 1, Pattern: workload.Greedy{}},
						{Name: "short1", Entry: 1, Exit: 2, Pattern: workload.Greedy{}},
						{Name: "short2", Entry: 2, Exit: 3, Pattern: workload.Greedy{}},
					},
				}
			}
			tb := plot.NewTable("E18: constant space (Phantom) vs unbounded space (exact max-min)",
				"alg", "state", "normJain", "util", "peakQ")
			for _, v := range []struct {
				key   string
				state string
				f     switchalg.Factory
			}{
				{"Phantom", "O(1)", switchalg.NewPhantom(core.Config{})},
				{"ERICA", "O(#VC)", switchalg.NewERICA()},
				{"ExactMaxMin", "O(#VC)", switchalg.NewExactMaxMin()},
			} {
				n, err := buildAndRun(parkingLot(v.f), d, o)
				if err != nil {
					return nil, err
				}
				oracle, err := n.MaxMinOracle()
				if err != nil {
					return nil, err
				}
				from, end := tailWindow(n, 0.25)
				var got []float64
				for i := range oracle {
					got = append(got, n.Goodput[i].TimeAvg(from, end))
				}
				nj := metrics.NormalizedJainIndex(got, oracle)
				util := n.TrunkUtilization(0)
				tb.AddRow(v.key, v.state, nj, util, n.PeakTrunkQueue[0])
				res.Summary["normjain_"+v.key] = nj
				res.Summary["util_"+v.key] = util
				res.Summary["peakq_"+v.key] = float64(n.PeakTrunkQueue[0])
				n.Release()
			}
			if !o.Quiet {
				res.Tables = append(res.Tables, tb.Render())
			}
			res.addf("paper taxonomy: unbounded-space allocators buy exact shares and full utilization with O(#VC) state; Phantom approximates them in O(1)")
			res.addf("measured: normalized Jain Phantom %.4f vs exact %.4f; utilization %.2f vs %.2f (the gap is the phantom's 1/u share)",
				res.Summary["normjain_Phantom"], res.Summary["normjain_ExactMaxMin"],
				res.Summary["util_Phantom"], res.Summary["util_ExactMaxMin"])
			return res, nil
		},
	})

	register(Definition{
		ID: "E21", PaperRef: "§1 fairness definition (GFC-style heterogeneous capacities)",
		Default: sim.Second,
		Title:   "Generic fairness configuration: heterogeneous trunk capacities, rates vs oracle",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E21", Summary: map[string]float64{}}
			// A 4-switch chain whose middle trunk is a third of the edge
			// trunks' capacity — the classic configuration in which
			// max-min shares differ per session and naive equal-split
			// schemes fail.
			n, err := buildAndRun(scenario.ATMConfig{
				Switches:      4,
				TrunkRatesBPS: []float64{150e6, 50e6, 150e6},
				Alg:           switchalg.NewPhantom(core.Config{}),
				Sessions: []scenario.ATMSessionSpec{
					{Name: "all-hops", Entry: 0, Exit: 3, Pattern: workload.Greedy{}},
					{Name: "edge0", Entry: 0, Exit: 1, Pattern: workload.Greedy{}},
					{Name: "narrow", Entry: 1, Exit: 2, Pattern: workload.Greedy{}},
					{Name: "edge2", Entry: 2, Exit: 3, Pattern: workload.Greedy{}},
					{Name: "tail", Entry: 1, Exit: 3, Pattern: workload.Greedy{}},
				},
			}, o.duration(sim.Second), o)
			if err != nil {
				return nil, err
			}
			defer n.Release()
			oracle, err := n.MaxMinOracle()
			if err != nil {
				return nil, err
			}
			from, end := tailWindow(n, 0.25)
			var got []float64
			tb := plot.NewTable("E21: heterogeneous capacities (150/50/150 Mb/s)",
				"session", "goodput(cells/s)", "oracle", "ratio")
			for i := range oracle {
				g := n.Goodput[i].TimeAvg(from, end)
				got = append(got, g)
				tb.AddRow(n.Config.Sessions[i].Name, g, oracle[i], g/oracle[i])
			}
			if !o.Quiet {
				res.Tables = append(res.Tables, tb.Render())
			}
			res.Summary["norm_jain"] = metrics.NormalizedJainIndex(got, oracle)
			// The narrow trunk's sessions must not leak extra rate through
			// the wide trunks: sessions bottlenecked at the 50 Mb/s trunk
			// get equal (lower) shares, edge sessions get the remainder.
			res.Summary["ratio_allhops"] = got[0] / oracle[0]
			res.Summary["ratio_edge0"] = got[1] / oracle[1]
			res.addf("expectation: every session's rate tracks its own max-min share even though the shares differ 3× across sessions")
			res.addf("measured: normalized Jain vs oracle %.4f; all-hops ratio %.2f, edge ratio %.2f",
				res.Summary["norm_jain"], res.Summary["ratio_allhops"], res.Summary["ratio_edge0"])
			return res, nil
		},
	})

	register(Definition{
		ID: "E22", PaperRef: "§2 scalability (constant space at scale)",
		Default: 600 * sim.Millisecond,
		Title:   "Scaling study: utilization, queue and fairness as sessions grow",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E22", Summary: map[string]float64{}}
			d := o.duration(600 * sim.Millisecond)
			tb := plot.NewTable("E22: k-session scaling on one 150 Mb/s trunk (u=5)",
				"k", "util(meas)", "util(theory)", "jain", "peakQ", "meanQ")
			for _, k := range []int{1, 2, 4, 8, 16, 32} {
				var specs []scenario.ATMSessionSpec
				for i := 0; i < k; i++ {
					specs = append(specs, scenario.ATMSessionSpec{
						Name: fmt.Sprintf("s%d", i+1), Entry: 0, Exit: 1,
						Pattern: workload.Greedy{},
					})
				}
				n, err := buildAndRun(scenario.ATMConfig{
					Switches: 2,
					Alg:      switchalg.NewPhantom(core.Config{}),
					Sessions: specs,
				}, d, o)
				if err != nil {
					return nil, err
				}
				from, end := tailWindow(n, 0.25)
				var goodputs []float64
				for i := range n.Goodput {
					goodputs = append(goodputs, n.Goodput[i].TimeAvg(from, end))
				}
				u := core.DefaultUtilizationFactor
				theory := core.DefaultTargetUtilization * float64(k) * u / (1 + float64(k)*u)
				util := n.TrunkUtilization(0)
				jain := metrics.JainIndex(goodputs)
				meanQ := n.TrunkQueue[0].TimeAvg(from, end)
				tb.AddRow(k, util, theory, jain, n.PeakTrunkQueue[0], meanQ)
				res.Summary[fmt.Sprintf("util_k%d", k)] = util
				res.Summary[fmt.Sprintf("theory_util_k%d", k)] = theory
				res.Summary[fmt.Sprintf("jain_k%d", k)] = jain
				res.Summary[fmt.Sprintf("peakq_k%d", k)] = float64(n.PeakTrunkQueue[0])
				n.Release()
			}
			if !o.Quiet {
				res.Tables = append(res.Tables, tb.Render())
			}
			res.addf("expectation: utilization follows 0.95·k·u/(1+k·u) toward 95%%, fairness stays ≈1, queues stay bounded — with the same 3 floats of port state at k=1 and k=32")
			res.addf("measured: util k=1 %.2f → k=32 %.2f; worst Jain %.3f",
				res.Summary["util_k1"], res.Summary["util_k32"],
				minOf(res.Summary["jain_k1"], res.Summary["jain_k2"], res.Summary["jain_k4"],
					res.Summary["jain_k8"], res.Summary["jain_k16"], res.Summary["jain_k32"]))
			return res, nil
		},
	})

	register(Definition{
		ID: "E19", PaperRef: "§4 (Vegas imbalance)", Default: 30 * sim.Second,
		Title: "Two Vegas sources do not balance; Selective Discard balances them",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E19", Summary: map[string]float64{}}
			d := o.duration(30 * sim.Second)

			vegasFlows := func() []scenario.TCPFlowSpec {
				early := tcp.DefaultSenderParams()
				v1 := tcp.DefaultVegasParams()
				early.Vegas = &v1
				late := tcp.DefaultSenderParams()
				v2 := tcp.DefaultVegasParams()
				late.Vegas = &v2
				// The late flow measures its baseRTT through the early
				// flow's standing queue — the imbalance mechanism.
				late.Start = sim.Time(d / 4)
				return []scenario.TCPFlowSpec{
					{Name: "vegas-early", Entry: 0, Exit: 1, AccessDelay: 2 * sim.Millisecond, Params: &early},
					{Name: "vegas-late", Entry: 0, Exit: 1, AccessDelay: 2 * sim.Millisecond, Params: &late},
				}
			}

			dropTail, err := runTCP(scenario.TCPConfig{Routers: 2, Flows: vegasFlows()}, d, o)
			if err != nil {
				return nil, err
			}
			discard, err := runTCP(scenario.TCPConfig{
				Routers: 2, Flows: vegasFlows(),
				Disc: func() ip.Discipline {
					return ip.NewPhantomDiscipline(ip.SelectiveDiscard, core.Config{})
				},
			}, d, o)
			if err != nil {
				return nil, err
			}
			// Compare over the window where both flows are active.
			tailRate := func(n *scenario.TCPNet, i int) float64 {
				from := sim.Time(d / 2)
				return n.Goodput[i].TimeAvg(from, n.Engine.Now())
			}
			gDT := []float64{tailRate(dropTail, 0), tailRate(dropTail, 1)}
			gSD := []float64{tailRate(discard, 0), tailRate(discard, 1)}
			res.Summary["minmax_droptail"] = metrics.MinMaxRatio(gDT)
			res.Summary["minmax_selective_discard"] = metrics.MinMaxRatio(gSD)
			res.Summary["jain_droptail"] = metrics.JainIndex(gDT)
			res.Summary["jain_selective_discard"] = metrics.JainIndex(gSD)
			if !o.Quiet {
				tb := plot.NewTable("E19: two Vegas flows, identical thresholds (α=2, β=4)",
					"router", "early(Mb/s)", "late(Mb/s)", "min/max")
				tb.AddRow("drop-tail", gDT[0]/1e6, gDT[1]/1e6, metrics.MinMaxRatio(gDT))
				tb.AddRow("selective discard", gSD[0]/1e6, gSD[1]/1e6, metrics.MinMaxRatio(gSD))
				res.Tables = append(res.Tables, tb.Render())
			}
			res.addf("paper (§4): with equal (α, β) thresholds 'there is no mechanism that would balance' two Vegas sources")
			res.addf("measured: min/max ratio %.2f under drop-tail → %.2f under Selective Discard",
				res.Summary["minmax_droptail"], res.Summary["minmax_selective_discard"])
			return res, nil
		},
	})
}
