package exp

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/workload"
)

// trunkBPS is the paper's link rate.
const trunkBPS = 150e6

// phantomTarget is the residual-measurement target in cells/s for a
// 150 Mb/s trunk with the default target utilization.
func phantomTarget() float64 {
	return atm.CPS(trunkBPS) * core.DefaultTargetUtilization
}

// buildAndRun constructs an ATM scenario and runs it for d, applying the
// run-shaping options (telemetry, trace, shards) to the config. The run
// length doubles as the series pre-sizing hint.
func buildAndRun(cfg scenario.ATMConfig, d sim.Duration, o Options) (*scenario.ATMNet, error) {
	cfg.Duration = d
	cfg.Telemetry = o.Telemetry
	cfg.Shards = o.Shards
	if cfg.Trace == nil {
		cfg.Trace = o.Trace
	}
	n, err := scenario.BuildATM(cfg)
	if err != nil {
		return nil, err
	}
	n.Run(d)
	return n, nil
}

// atmFigures renders the standard figure triple of the paper: queue length,
// fair-share estimate (MACR/ERS) and per-session allowed rates.
func atmFigures(n *scenario.ATMNet, res *Result, o Options) {
	if o.Quiet {
		return
	}
	end := n.Engine.Now()
	q := plot.NewChart(res.ID+": trunk queue length", "cells", 0, end)
	for k, s := range n.TrunkQueue {
		q.Add(s, fmt.Sprintf("trunk%d", k))
	}
	res.Figures = append(res.Figures, q.Render())

	anyFS := false
	fs := plot.NewChart(res.ID+": fair-share estimate (MACR)", "cells/s", 0, end)
	for k, s := range n.FairShare {
		if s != nil {
			fs.Add(s, fmt.Sprintf("trunk%d", k))
			anyFS = true
		}
	}
	if anyFS {
		res.Figures = append(res.Figures, fs.Render())
	}

	acr := plot.NewChart(res.ID+": sessions' allowed rate (ACR)", "cells/s", 0, end)
	for i, s := range n.ACR {
		acr.Add(s, n.Config.Sessions[i].Name)
	}
	res.Figures = append(res.Figures, acr.Render())
}

// tailWindow returns the last fraction of the run for steady-state
// measurements.
func tailWindow(n *scenario.ATMNet, frac float64) (sim.Time, sim.Time) {
	end := n.Engine.Now()
	return end - sim.Time(float64(end)*frac), end
}

// atmSummary fills the standard summary metrics.
func atmSummary(n *scenario.ATMNet, res *Result) {
	from, end := tailWindow(n, 0.25)
	var goodputs []float64
	for i := range n.Goodput {
		g := n.Goodput[i].TimeAvg(from, end)
		goodputs = append(goodputs, g)
		res.Summary[fmt.Sprintf("goodput_cps_%d", i)] = g
		res.Summary[fmt.Sprintf("acr_final_%d", i)] = n.ACR[i].Last()
	}
	res.Summary["jain_tail"] = metrics.JainIndex(goodputs)
	res.Summary["util_trunk0"] = n.TrunkUtilization(0)
	res.Summary["peak_queue_cells"] = float64(n.PeakTrunkQueue[0])
	res.Summary["end_queue_cells"] = n.TrunkQueue[0].Last()
	res.Summary["mean_queue_cells"] = n.TrunkQueue[0].TimeAvg(from, end)
	if n.FairShare[0] != nil {
		res.Summary["fairshare_final_cps"] = n.FairShare[0].Last()
	}
}

// convergenceOf returns ms until the series settles to target ±tol, or -1.
func convergenceOf(s *metrics.Series, end sim.Time, target, tol float64) float64 {
	t, ok := metrics.ConvergenceTime(s, 0, end, target, tol, 20*sim.Millisecond)
	if !ok {
		return -1
	}
	return float64(t) / float64(sim.Millisecond)
}

func init() {
	register(Definition{
		ID: "E01", PaperRef: "Fig. 3 (§2)", Default: 400 * sim.Millisecond,
		Title: "Two greedy sessions, negligible RTT, one 150 Mb/s link (Phantom ER)",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E01", Summary: map[string]float64{}}
			n, err := buildAndRun(scenario.ATMConfig{
				Switches: 2,
				Alg:      switchalg.NewPhantom(core.Config{}),
				Sessions: []scenario.ATMSessionSpec{
					{Name: "s1", Entry: 0, Exit: 1, Pattern: workload.Greedy{}},
					{Name: "s2", Entry: 0, Exit: 1, Pattern: workload.Greedy{}},
				},
			}, o.duration(400*sim.Millisecond), o)
			if err != nil {
				return nil, err
			}
			defer n.Release()
			atmFigures(n, res, o)
			atmSummary(n, res)
			wantMACR, wantRate := metrics.PhantomEquilibrium(phantomTarget(), 2, core.DefaultUtilizationFactor)
			res.Summary["theory_macr_cps"] = wantMACR
			res.Summary["theory_rate_cps"] = wantRate
			res.Summary["conv_ms_acr0"] = convergenceOf(n.ACR[0], n.Engine.Now(), wantRate, 0.15)
			res.addf("paper: both sessions converge to the same rate ≈u·C/(1+2u) with a moderate transient queue")
			res.addf("measured: ACR settles at %.0f vs theory %.0f cells/s; peak queue %d cells; Jain %.3f",
				res.Summary["acr_final_0"], wantRate, int(res.Summary["peak_queue_cells"]), res.Summary["jain_tail"])
			return res, nil
		},
	})

	register(Definition{
		ID: "E02", PaperRef: "Fig. 4 (§2)", Default: 800 * sim.Millisecond,
		Title: "Greedy sessions sharing the link with on/off (bursty) sessions (Phantom ER)",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E02", Summary: map[string]float64{}}
			d := o.duration(800 * sim.Millisecond)
			n, err := buildAndRun(scenario.ATMConfig{
				Switches: 2,
				Alg:      switchalg.NewPhantom(core.Config{}),
				Sessions: []scenario.ATMSessionSpec{
					{Name: "greedy1", Entry: 0, Exit: 1, Pattern: workload.Greedy{}},
					{Name: "greedy2", Entry: 0, Exit: 1, Pattern: workload.Greedy{}},
					{Name: "onoff1", Entry: 0, Exit: 1, Pattern: workload.PeriodicOnOff{
						Start: sim.Time(d / 4), On: sim.Duration(d / 4), Off: sim.Duration(d / 4)}},
					{Name: "onoff2", Entry: 0, Exit: 1, Pattern: workload.PeriodicOnOff{
						Start: sim.Time(d / 2), On: sim.Duration(d / 8), Off: sim.Duration(d / 8)}},
				},
			}, d, o)
			if err != nil {
				return nil, err
			}
			defer n.Release()
			atmFigures(n, res, o)
			atmSummary(n, res)
			// MACR while only the two greedy sessions are up vs while all
			// four are up: the estimate must drop when the bursts arrive.
			macrBefore := n.FairShare[0].At(sim.Time(d / 4))
			macrDuring := n.FairShare[0].At(sim.Time(d/2 + d/16))
			res.Summary["macr_before_burst"] = macrBefore
			res.Summary["macr_during_burst"] = macrDuring
			res.addf("paper: when bursty sessions switch on, MACR drops quickly and greedy sessions shed rate; rates recover in off periods")
			res.addf("measured: MACR %.0f → %.0f cells/s across the burst onset; peak queue %d cells",
				macrBefore, macrDuring, int(res.Summary["peak_queue_cells"]))
			return res, nil
		},
	})

	register(Definition{
		ID: "E03", PaperRef: "Fig. 5", Default: sim.Second,
		Title: "Staggered joins and leaves: five sessions arriving and departing",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E03", Summary: map[string]float64{}}
			d := o.duration(sim.Second)
			step := sim.Time(d / 10)
			var specs []scenario.ATMSessionSpec
			for i := 0; i < 5; i++ {
				specs = append(specs, scenario.ATMSessionSpec{
					Name:  fmt.Sprintf("s%d", i+1),
					Entry: 0, Exit: 1,
					// Session i joins at i·step and leaves at (10−i)·step:
					// nested lifetimes — the population ramps 1..5 then back.
					Pattern: workload.Window{Start: sim.Time(i) * step, Stop: sim.Time(10-i) * step},
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
			defer n.Release()
			atmFigures(n, res, o)
			atmSummary(n, res)
			// With all five sessions up (middle of run), rates sit at the
			// k=5 equilibrium; with one session (start), at k=1.
			_, want5 := metrics.PhantomEquilibrium(phantomTarget(), 5, core.DefaultUtilizationFactor)
			mid := sim.Time(d/2) - step/2
			res.Summary["acr_mid_s0"] = n.ACR[0].At(mid)
			res.Summary["theory_rate_k5"] = want5
			res.addf("paper: MACR re-converges after every membership change")
			res.addf("measured: with 5 sessions up, s1 ACR %.0f vs k=5 theory %.0f cells/s",
				res.Summary["acr_mid_s0"], want5)
			return res, nil
		},
	})

	register(Definition{
		ID: "E04", PaperRef: "Fig. 6", Default: sim.Second,
		Title: "Mixed round-trip times on a WAN link: fairness is RTT-insensitive",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E04", Summary: map[string]float64{}}
			n, err := buildAndRun(scenario.ATMConfig{
				Switches:   2,
				TrunkDelay: 5 * sim.Millisecond, // 1000 km class trunk
				Alg:        switchalg.NewPhantom(core.Config{}),
				Sessions: []scenario.ATMSessionSpec{
					{Name: "nearby", Entry: 0, Exit: 1, Pattern: workload.Greedy{}},
					{Name: "far", Entry: 0, Exit: 1, Pattern: workload.Greedy{}},
					{Name: "farther", Entry: 0, Exit: 1, Pattern: workload.Greedy{}},
				},
				AccessDelay: 10 * sim.Microsecond,
			}, o.duration(sim.Second), o)
			if err != nil {
				return nil, err
			}
			defer n.Release()
			atmFigures(n, res, o)
			atmSummary(n, res)
			res.addf("paper: because Phantom feeds back an explicit rate rather than a binary bit, sessions with very different RTTs get equal shares")
			res.addf("measured: tail Jain index %.4f across 3 sessions on a 5 ms trunk", res.Summary["jain_tail"])
			return res, nil
		},
	})

	register(Definition{
		ID: "E05", PaperRef: "Fig. 7–8", Default: sim.Second,
		Title: "Parking-lot (multi-bottleneck): max-min fairness, no beat-down",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E05", Summary: map[string]float64{}}
			n, err := buildAndRun(scenario.ATMConfig{
				Switches: 4,
				Alg:      switchalg.NewPhantom(core.Config{}),
				Sessions: []scenario.ATMSessionSpec{
					{Name: "long", Entry: 0, Exit: 3, Pattern: workload.Greedy{}},
					{Name: "short0", Entry: 0, Exit: 1, Pattern: workload.Greedy{}},
					{Name: "short1", Entry: 1, Exit: 2, Pattern: workload.Greedy{}},
					{Name: "short2", Entry: 2, Exit: 3, Pattern: workload.Greedy{}},
				},
			}, o.duration(sim.Second), o)
			if err != nil {
				return nil, err
			}
			defer n.Release()
			atmFigures(n, res, o)
			atmSummary(n, res)
			oracle, err := n.MaxMinOracle()
			if err != nil {
				return nil, err
			}
			from, end := tailWindow(n, 0.25)
			var got []float64
			tb := plot.NewTable("E05: goodput vs max-min oracle", "session", "goodput", "oracle", "ratio")
			for i := range oracle {
				g := n.Goodput[i].TimeAvg(from, end)
				got = append(got, g)
				tb.AddRow(n.Config.Sessions[i].Name, g, oracle[i], g/oracle[i])
				res.Summary[fmt.Sprintf("oracle_cps_%d", i)] = oracle[i]
			}
			if !o.Quiet {
				res.Tables = append(res.Tables, tb.Render())
			}
			res.Summary["norm_jain"] = metrics.NormalizedJainIndex(got, oracle)
			res.addf("paper: the multi-hop session gets its full max-min share (no beat-down, unlike binary schemes [BdJ94])")
			res.addf("measured: normalized Jain vs oracle %.4f; long-session ratio %.2f",
				res.Summary["norm_jain"], got[0]/oracle[0])
			return res, nil
		},
	})

	register(Definition{
		ID: "E06", PaperRef: "Fig. 9 (§3)", Default: 400 * sim.Millisecond,
		Title: "Utilization-factor sweep: utilization follows k·u/(1+k·u)",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E06", Summary: map[string]float64{}}
			tb := plot.NewTable("E06: utilization factor sweep (k=2 greedy sessions)",
				"u", "util(meas)", "util(theory)", "MACR(meas)", "MACR(theory)", "peakQ")
			for _, u := range []float64{1, 2, 5, 10} {
				n, err := buildAndRun(scenario.ATMConfig{
					Switches: 2,
					Alg:      switchalg.NewPhantom(core.Config{UtilizationFactor: u}),
					Sessions: []scenario.ATMSessionSpec{
						{Name: "s1", Entry: 0, Exit: 1, Pattern: workload.Greedy{}},
						{Name: "s2", Entry: 0, Exit: 1, Pattern: workload.Greedy{}},
					},
				}, o.duration(400*sim.Millisecond), o)
				if err != nil {
					return nil, err
				}
				wantMACR, wantRate := metrics.PhantomEquilibrium(phantomTarget(), 2, u)
				theoryUtil := 2 * wantRate / atm.CPS(trunkBPS)
				util := n.TrunkUtilization(0)
				tb.AddRow(u, util, theoryUtil, n.FairShare[0].Last(), wantMACR, n.PeakTrunkQueue[0])
				res.Summary[fmt.Sprintf("util_u%g", u)] = util
				res.Summary[fmt.Sprintf("theory_util_u%g", u)] = theoryUtil
				n.Release()
			}
			if !o.Quiet {
				res.Tables = append(res.Tables, tb.Render())
			}
			res.addf("paper: utilization_factor trades utilization against the phantom's share; u=5 gives ≈91%% of target")
			res.addf("measured: util(u=1) %.2f → util(u=10) %.2f, tracking k·u/(1+k·u)",
				res.Summary["util_u1"], res.Summary["util_u10"])
			return res, nil
		},
	})

	register(Definition{
		ID: "E07", PaperRef: "Fig. 11 (§3)", Default: 800 * sim.Millisecond,
		Title: "Binary-mode Phantom (CI bit instead of explicit rate)",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E07", Summary: map[string]float64{}}
			// Binary mode needs the MinMACR floor (see core.Config): the
			// allowed rate must stay above ICR so marked-down sources keep
			// a live RM loop.
			ciCfg := core.Config{MinMACR: atm.CPS(8.5e6) / core.DefaultUtilizationFactor}
			n, err := buildAndRun(scenario.ATMConfig{
				Switches: 2,
				Alg:      switchalg.NewPhantomCI(ciCfg),
				Sessions: []scenario.ATMSessionSpec{
					{Name: "s1", Entry: 0, Exit: 1, Pattern: workload.Greedy{}},
					{Name: "s2", Entry: 0, Exit: 1, Pattern: workload.Greedy{}},
				},
			}, o.duration(800*sim.Millisecond), o)
			if err != nil {
				return nil, err
			}
			defer n.Release()
			atmFigures(n, res, o)
			atmSummary(n, res)
			res.addf("paper: sources above u·MACR observe CI and stop increasing; rates oscillate around the fair share instead of pinning to it")
			res.addf("measured: tail Jain %.4f, utilization %.2f, peak queue %d cells",
				res.Summary["jain_tail"], res.Summary["util_trunk0"], int(res.Summary["peak_queue_cells"]))
			return res, nil
		},
	})

	register(Definition{
		ID: "E08", PaperRef: "Table 1 (§2–3)", Default: 600 * sim.Millisecond,
		Title: "Equilibrium law: MACR = C/(1+k·u) across a (k, u) grid",
		Run: func(o Options) (*Result, error) {
			res := &Result{ID: "E08", Summary: map[string]float64{}}
			tb := plot.NewTable("E08: measured vs theoretical equilibrium",
				"k", "u", "MACR(meas)", "MACR(th)", "rate(meas)", "rate(th)", "relerr")
			worst := 0.0
			for _, k := range []int{1, 2, 5, 8} {
				for _, u := range []float64{1, 5} {
					var specs []scenario.ATMSessionSpec
					for i := 0; i < k; i++ {
						specs = append(specs, scenario.ATMSessionSpec{
							Name: fmt.Sprintf("s%d", i+1), Entry: 0, Exit: 1,
							Pattern: workload.Greedy{},
						})
					}
					n, err := buildAndRun(scenario.ATMConfig{
						Switches: 2,
						Alg:      switchalg.NewPhantom(core.Config{UtilizationFactor: u}),
						Sessions: specs,
					}, o.duration(600*sim.Millisecond), o)
					if err != nil {
						return nil, err
					}
					wantMACR, wantRate := metrics.PhantomEquilibrium(phantomTarget(), k, u)
					gotMACR := n.FairShare[0].Last()
					gotRate := n.ACR[0].Last()
					rel := (gotMACR - wantMACR) / wantMACR
					if rel < 0 {
						rel = -rel
					}
					if rel > worst {
						worst = rel
					}
					tb.AddRow(k, u, gotMACR, wantMACR, gotRate, wantRate, rel)
					n.Release()
				}
			}
			if !o.Quiet {
				res.Tables = append(res.Tables, tb.Render())
			}
			res.Summary["worst_relerr"] = worst
			res.addf("paper: the phantom analysis predicts MACR = C/(1+k·u) exactly")
			res.addf("measured: worst relative error %.3f across the grid", worst)
			return res, nil
		},
	})
}
