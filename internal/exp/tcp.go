package exp

import (
	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// fig14Flows is the heterogeneous-RTT population of the Section 4.3
// simulations: four greedy Reno flows whose access delays span 40×.
func fig14Flows() []scenario.TCPFlowSpec {
	return []scenario.TCPFlowSpec{
		{Name: "rtt1ms", Entry: 0, Exit: 1, AccessDelay: 500 * sim.Microsecond},
		{Name: "rtt4ms", Entry: 0, Exit: 1, AccessDelay: 2 * sim.Millisecond},
		{Name: "rtt12ms", Entry: 0, Exit: 1, AccessDelay: 6 * sim.Millisecond},
		{Name: "rtt40ms", Entry: 0, Exit: 1, AccessDelay: 20 * sim.Millisecond},
	}
}

// runTCP builds and runs a TCP scenario, applying the run-shaping options
// (telemetry, trace) to the config. The run length doubles as the series
// pre-sizing hint.
func runTCP(cfg scenario.TCPConfig, d sim.Duration, o Options) (*scenario.TCPNet, error) {
	cfg.Duration = d
	cfg.Telemetry = o.Telemetry
	cfg.Trace = o.Trace
	n, err := scenario.BuildTCP(cfg)
	if err != nil {
		return nil, err
	}
	n.Run(d)
	return n, nil
}

// tcpGoodputs returns lifetime mean goodputs in bits/s.
func tcpGoodputs(n *scenario.TCPNet) []float64 {
	out := make([]float64, len(n.Senders))
	for i := range out {
		out[i] = n.MeanGoodputBPS(i)
	}
	return out
}

// tcpTable renders a per-flow goodput table.
func tcpTable(title string, n *scenario.TCPNet) string {
	tb := plot.NewTable(title, "flow", "goodput(Mb/s)", "retx", "timeouts")
	for i, f := range n.Config.Flows {
		tb.AddRow(f.Name, n.MeanGoodputBPS(i)/1e6, n.Senders[i].Retransmits(), n.Senders[i].Timeouts())
	}
	return tb.Render()
}

// tcpFigures renders the flow-rate and queue charts.
func tcpFigures(n *scenario.TCPNet, res *Result, label string) {
	end := n.Engine.Now()
	g := plot.NewChart(res.ID+": per-flow goodput ("+label+")", "bit/s", 0, end)
	for i, s := range n.Goodput {
		g.Add(s, n.Config.Flows[i].Name)
	}
	res.Figures = append(res.Figures, g.Render())
	q := plot.NewChart(res.ID+": bottleneck queue ("+label+")", "pkts", 0, end)
	q.Add(n.TrunkQueue[0], "queue")
	if n.MACR[0] != nil {
		m := plot.NewChart(res.ID+": router MACR ("+label+")", "bit/s", 0, end)
		m.Add(n.MACR[0], "MACR")
		res.Figures = append(res.Figures, m.Render())
	}
	res.Figures = append(res.Figures, q.Render())
}

func init() {
	register(Definition{
		ID: "E09", PaperRef: "Fig. 14 (§4.3)", Default: 20 * sim.Second,
		Title: "Reno over drop-tail vs Selective Discard: RTT bias repaired",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E09", Summary: map[string]float64{}}
			d := o.duration(20 * sim.Second)

			dropTail, err := runTCP(scenario.TCPConfig{Routers: 2, Flows: fig14Flows()}, d, o)
			if err != nil {
				return nil, err
			}
			discard, err := runTCP(scenario.TCPConfig{
				Routers: 2, Flows: fig14Flows(),
				Disc: func() ip.Discipline {
					return ip.NewPhantomDiscipline(ip.SelectiveDiscard, core.Config{})
				},
			}, d, o)
			if err != nil {
				return nil, err
			}
			gDT, gSD := tcpGoodputs(dropTail), tcpGoodputs(discard)
			res.Summary["jain_droptail"] = metrics.JainIndex(gDT)
			res.Summary["jain_selective_discard"] = metrics.JainIndex(gSD)
			res.Summary["util_droptail"] = dropTail.TrunkUtilization(0)
			res.Summary["util_selective_discard"] = discard.TrunkUtilization(0)
			res.Summary["minmax_droptail"] = metrics.MinMaxRatio(gDT)
			res.Summary["minmax_selective_discard"] = metrics.MinMaxRatio(gSD)
			if !o.Quiet {
				res.Tables = append(res.Tables,
					tcpTable("E09 left (drop-tail, unfair)", dropTail),
					tcpTable("E09 right (Selective Discard, fair)", discard))
				tcpFigures(dropTail, res, "drop-tail")
				tcpFigures(discard, res, "selective discard")
			}
			res.addf("paper (Fig. 14): drop-tail Reno biases against long-RTT sessions; Selective Discard equalizes them")
			res.addf("measured: Jain %.3f → %.3f; min/max ratio %.2f → %.2f",
				res.Summary["jain_droptail"], res.Summary["jain_selective_discard"],
				res.Summary["minmax_droptail"], res.Summary["minmax_selective_discard"])
			return res, nil
		},
	})

	register(Definition{
		ID: "E10", PaperRef: "Fig. 17 (§4.3)", Default: 20 * sim.Second,
		Title: "Beat-down of a multi-router session, repaired by Selective Discard",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E10", Summary: map[string]float64{}}
			d := o.duration(20 * sim.Second)
			flows := []scenario.TCPFlowSpec{
				{Name: "long", Entry: 0, Exit: 3, AccessDelay: sim.Millisecond},
				{Name: "cross0", Entry: 0, Exit: 1, AccessDelay: sim.Millisecond},
				{Name: "cross1", Entry: 1, Exit: 2, AccessDelay: sim.Millisecond},
				{Name: "cross2", Entry: 2, Exit: 3, AccessDelay: sim.Millisecond},
			}
			dropTail, err := runTCP(scenario.TCPConfig{Routers: 4, Flows: flows}, d, o)
			if err != nil {
				return nil, err
			}
			discard, err := runTCP(scenario.TCPConfig{
				Routers: 4, Flows: flows,
				Disc: func() ip.Discipline {
					return ip.NewPhantomDiscipline(ip.SelectiveDiscard, core.Config{})
				},
			}, d, o)
			if err != nil {
				return nil, err
			}
			oracle, err := discard.MaxMinOracle()
			if err != nil {
				return nil, err
			}
			gDT, gSD := tcpGoodputs(dropTail), tcpGoodputs(discard)
			res.Summary["long_ratio_droptail"] = gDT[0] / oracle[0]
			res.Summary["long_ratio_selective_discard"] = gSD[0] / oracle[0]
			res.Summary["norm_jain_droptail"] = metrics.NormalizedJainIndex(gDT, oracle)
			res.Summary["norm_jain_selective_discard"] = metrics.NormalizedJainIndex(gSD, oracle)
			if !o.Quiet {
				res.Tables = append(res.Tables,
					tcpTable("E10 drop-tail (long flow beaten down)", dropTail),
					tcpTable("E10 Selective Discard", discard))
			}
			res.addf("paper: sessions crossing many routers are 'beaten down' under loss-based control (the TCP analogue of [BdJ94]); rate-based discard removes the bias")
			res.addf("measured: long-flow share of max-min %.2f → %.2f",
				res.Summary["long_ratio_droptail"], res.Summary["long_ratio_selective_discard"])
			return res, nil
		},
	})

	register(Definition{
		ID: "E11", PaperRef: "Fig. 18 (§4)", Default: 10 * sim.Second,
		Title: "Selective Discard conformance: drops hit only rate exceeders",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E11", Summary: map[string]float64{}}
			d := o.duration(10 * sim.Second)
			var disc *ip.PhantomDiscipline
			n, err := scenario.BuildTCP(scenario.TCPConfig{
				Routers: 2, Flows: fig14Flows(),
				Disc: func() ip.Discipline {
					disc = ip.NewPhantomDiscipline(ip.SelectiveDiscard, core.Config{})
					return disc
				},
				Duration:  d,
				Telemetry: o.Telemetry,
				Trace:     o.Trace,
			})
			if err != nil {
				return nil, err
			}
			// Classify every drop at decision time: discipline drops must have
			// CR above the instantaneous allowed rate; tail (buffer) drops
			// should not happen at all, because the discard keeps the queue
			// short — that is the paper's "avoids congestion even in drop
			// tail routers" claim.
			// Skip the cold-start warmup (the first quarter): before MACR has
			// ever measured the port, TCP slow-start can overrun the physical
			// buffer; the paper's claim is about the controlled regime.
			warm := sim.Time(d / 4)
			var tailDrops, predicateDrops, misclassified int64
			n.SetTrunkDropObserver(0, func(now sim.Time, p *ip.Packet, reason string) {
				if now < warm {
					return
				}
				if reason == "tail" {
					tailDrops++
					return
				}
				predicateDrops++
				if p.CurrentRate <= disc.Control().AllowedRate() {
					misclassified++
				}
			})
			n.Run(d)
			res.Summary["drops_tail"] = float64(tailDrops)
			res.Summary["drops_predicate"] = float64(predicateDrops)
			res.Summary["drops_misclassified"] = float64(misclassified)
			res.Summary["util"] = n.TrunkUtilization(0)
			res.Summary["jain"] = metrics.JainIndex(tcpGoodputs(n))
			res.Summary["peak_queue_pkts"] = float64(n.PeakTrunkQueue[0])
			if !o.Quiet {
				res.Tables = append(res.Tables, tcpTable("E11 Selective Discard population", n))
			}
			res.addf("paper (Fig. 18): drop iff CR > utilization_factor·MACR — congestion avoided even in drop-tail routers")
			res.addf("measured: %d predicate drops (%d misclassified), %d tail drops, peak queue %d pkts, Jain %.3f at util %.2f",
				predicateDrops, misclassified, tailDrops, n.PeakTrunkQueue[0], res.Summary["jain"], res.Summary["util"])
			return res, nil
		},
	})

	register(Definition{
		ID: "E12", PaperRef: "§4 (mechanisms 2–3)", Default: 20 * sim.Second,
		Title: "Selective Source Quench and EFCI/ECN marking on the Fig. 14 population",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E12", Summary: map[string]float64{}}
			d := o.duration(20 * sim.Second)
			modes := []struct {
				key  string
				mode ip.PhantomMode
			}{
				{"quench", ip.SelectiveQuench},
				{"ecn", ip.ECNMark},
			}
			for _, m := range modes {
				mode := m.mode
				n, err := scenario.BuildTCP(scenario.TCPConfig{
					Routers: 2, Flows: fig14Flows(),
					Disc: func() ip.Discipline {
						return ip.NewPhantomDiscipline(mode, core.Config{})
					},
					Duration:  d,
					Telemetry: o.Telemetry,
					Trace:     o.Trace,
				})
				if err != nil {
					return nil, err
				}
				// Lossless is a steady-state property: ignore cold-start
				// buffer overruns before MACR has measured the port.
				warm := sim.Time(d / 4)
				var warmDrops int64
				n.SetTrunkDropObserver(0, func(now sim.Time, _ *ip.Packet, _ string) {
					if now >= warm {
						warmDrops++
					}
				})
				n.Run(d)
				g := tcpGoodputs(n)
				res.Summary["jain_"+m.key] = metrics.JainIndex(g)
				res.Summary["util_"+m.key] = n.TrunkUtilization(0)
				res.Summary["drops_"+m.key] = float64(warmDrops)
				if !o.Quiet {
					res.Tables = append(res.Tables, tcpTable("E12 "+m.mode.String(), n))
				}
				n.Release()
			}
			res.addf("paper: both lossless variants achieve the fairness of Selective Discard; quench consumes reverse bandwidth, the EFCI bit needs a header bit")
			res.addf("measured: Jain quench %.3f / ecn %.3f; drops quench %d / ecn %d",
				res.Summary["jain_quench"], res.Summary["jain_ecn"],
				int(res.Summary["drops_quench"]), int(res.Summary["drops_ecn"]))
			return res, nil
		},
	})

	register(Definition{
		ID: "E13", PaperRef: "§4 (mechanism 4)", Default: 20 * sim.Second,
		Title: "Selective RED vs plain RED",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E13", Summary: map[string]float64{}}
			d := o.duration(20 * sim.Second)

			plain, err := runTCP(scenario.TCPConfig{
				Routers: 2, Flows: fig14Flows(),
				Disc: func() ip.Discipline { return ip.NewRED(11) },
			}, d, o)
			if err != nil {
				return nil, err
			}
			selective, err := runTCP(scenario.TCPConfig{
				Routers: 2, Flows: fig14Flows(),
				Disc: func() ip.Discipline {
					return ip.NewPhantomDiscipline(ip.SelectiveRED, core.Config{})
				},
			}, d, o)
			if err != nil {
				return nil, err
			}
			gP, gS := tcpGoodputs(plain), tcpGoodputs(selective)
			res.Summary["jain_red"] = metrics.JainIndex(gP)
			res.Summary["jain_selective_red"] = metrics.JainIndex(gS)
			res.Summary["util_red"] = plain.TrunkUtilization(0)
			res.Summary["util_selective_red"] = selective.TrunkUtilization(0)
			if !o.Quiet {
				res.Tables = append(res.Tables,
					tcpTable("E13 plain RED", plain),
					tcpTable("E13 Selective RED", selective))
			}
			res.addf("paper: RED reduces queues but 'still does not always guarantee fairness'; restricting early drops to rate exceeders adds the missing fairness")
			res.addf("measured: Jain RED %.3f vs Selective RED %.3f at comparable utilization (%.2f vs %.2f)",
				res.Summary["jain_red"], res.Summary["jain_selective_red"],
				res.Summary["util_red"], res.Summary["util_selective_red"])
			return res, nil
		},
	})
}
