package exp

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"A01", "A02", "A03", "A04", "A05",
		"E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08",
		"E09", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17",
		"E18", "E19", "E20", "E21", "E22",
	}
	var all []Definition
	Walk(func(d Definition) bool {
		all = append(all, d)
		return true
	})
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, d := range all {
		if d.ID != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, d.ID, want[i])
		}
		if d.Title == "" || d.PaperRef == "" || d.Run == nil || d.Default <= 0 {
			t.Fatalf("%s is underspecified: %+v", d.ID, d)
		}
	}
	if _, ok := Get("E01"); !ok {
		t.Fatal("Get(E01) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("Get(nope) succeeded")
	}
	// Early termination stops the walk.
	n := 0
	Walk(func(Definition) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("Walk ignored early stop: visited %d", n)
	}
}

// TestExecuteValidation checks the run-hook wrapper: hooks fire in order and
// malformed results are rejected before they can reach golden snapshots.
func TestExecuteValidation(t *testing.T) {
	var phases []Phase
	hook := func(id string, p Phase, err error) { phases = append(phases, p) }

	good := Definition{ID: "T1", Run: func(o Options) (*Result, error) {
		return &Result{ID: "T1", Summary: map[string]float64{}}, nil
	}}
	if _, err := Execute(good, Options{}, hook); err != nil {
		t.Fatalf("good run rejected: %v", err)
	}
	if len(phases) != 2 || phases[0] != PhaseStart || phases[1] != PhaseDone {
		t.Fatalf("hook phases = %v", phases)
	}

	for name, def := range map[string]Definition{
		"nil result":  {ID: "T2", Run: func(Options) (*Result, error) { return nil, nil }},
		"wrong ID":    {ID: "T3", Run: func(Options) (*Result, error) { return &Result{ID: "ZZ", Summary: map[string]float64{}}, nil }},
		"nil summary": {ID: "T4", Run: func(Options) (*Result, error) { return &Result{ID: "T4"}, nil }},
	} {
		phases = nil
		if _, err := Execute(def, Options{}, hook); err == nil {
			t.Errorf("%s accepted", name)
		}
		if len(phases) != 2 || phases[1] != PhaseFailed {
			t.Errorf("%s: hook phases = %v", name, phases)
		}
	}
}

// run executes an experiment at reduced duration.
func run(t *testing.T, id string, d sim.Duration) *Result {
	t.Helper()
	def, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	res, err := def.Run(Options{Duration: d, Quiet: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id {
		t.Fatalf("result ID %s, want %s", res.ID, id)
	}
	if len(res.Notes) == 0 {
		t.Fatalf("%s produced no notes", id)
	}
	return res
}

func TestE01Shape(t *testing.T) {
	res := run(t, "E01", 300*sim.Millisecond)
	if res.Summary["jain_tail"] < 0.98 {
		t.Errorf("jain = %v", res.Summary["jain_tail"])
	}
	rate := res.Summary["acr_final_0"]
	want := res.Summary["theory_rate_cps"]
	if rate < want*0.8 || rate > want*1.2 {
		t.Errorf("acr %v vs theory %v", rate, want)
	}
	if res.Summary["conv_ms_acr0"] < 0 {
		t.Error("never converged")
	}
}

func TestE02Shape(t *testing.T) {
	res := run(t, "E02", 400*sim.Millisecond)
	if res.Summary["macr_during_burst"] >= res.Summary["macr_before_burst"] {
		t.Errorf("MACR did not drop on burst: %v → %v",
			res.Summary["macr_before_burst"], res.Summary["macr_during_burst"])
	}
}

func TestE03Shape(t *testing.T) {
	res := run(t, "E03", 500*sim.Millisecond)
	mid := res.Summary["acr_mid_s0"]
	want := res.Summary["theory_rate_k5"]
	if mid < want*0.6 || mid > want*1.6 {
		t.Errorf("mid-run ACR %v vs k=5 theory %v", mid, want)
	}
}

func TestE04Shape(t *testing.T) {
	res := run(t, "E04", 600*sim.Millisecond)
	if res.Summary["jain_tail"] < 0.95 {
		t.Errorf("RTT-mixed fairness = %v", res.Summary["jain_tail"])
	}
}

func TestE05Shape(t *testing.T) {
	res := run(t, "E05", 600*sim.Millisecond)
	if res.Summary["norm_jain"] < 0.95 {
		t.Errorf("normalized Jain vs oracle = %v", res.Summary["norm_jain"])
	}
}

func TestE06Shape(t *testing.T) {
	res := run(t, "E06", 250*sim.Millisecond)
	// Utilization rises with u and tracks theory within 10 points.
	if res.Summary["util_u10"] <= res.Summary["util_u1"] {
		t.Errorf("utilization not increasing in u: %v vs %v",
			res.Summary["util_u1"], res.Summary["util_u10"])
	}
	for _, u := range []string{"1", "2", "5", "10"} {
		meas, th := res.Summary["util_u"+u], res.Summary["theory_util_u"+u]
		if meas < th-0.12 || meas > th+0.12 {
			t.Errorf("u=%s: util %v vs theory %v", u, meas, th)
		}
	}
}

func TestE07Shape(t *testing.T) {
	res := run(t, "E07", 500*sim.Millisecond)
	if res.Summary["jain_tail"] < 0.9 {
		t.Errorf("binary-mode fairness = %v", res.Summary["jain_tail"])
	}
	if res.Summary["util_trunk0"] < 0.5 {
		t.Errorf("binary-mode utilization = %v", res.Summary["util_trunk0"])
	}
}

func TestE08Shape(t *testing.T) {
	res := run(t, "E08", 400*sim.Millisecond)
	if res.Summary["worst_relerr"] > 0.15 {
		t.Errorf("worst equilibrium error = %v", res.Summary["worst_relerr"])
	}
}

func TestE09Shape(t *testing.T) {
	res := run(t, "E09", 8*sim.Second)
	if res.Summary["jain_selective_discard"] < res.Summary["jain_droptail"] {
		t.Errorf("selective discard did not improve fairness: %v vs %v",
			res.Summary["jain_selective_discard"], res.Summary["jain_droptail"])
	}
	if res.Summary["jain_selective_discard"] < 0.85 {
		t.Errorf("selective discard fairness = %v", res.Summary["jain_selective_discard"])
	}
}

func TestE10Shape(t *testing.T) {
	res := run(t, "E10", 8*sim.Second)
	if res.Summary["long_ratio_selective_discard"] <= res.Summary["long_ratio_droptail"] {
		t.Errorf("beat-down not repaired: %v vs %v",
			res.Summary["long_ratio_selective_discard"], res.Summary["long_ratio_droptail"])
	}
}

func TestE11Shape(t *testing.T) {
	res := run(t, "E11", 5*sim.Second)
	if res.Summary["drops_misclassified"] != 0 {
		t.Errorf("misclassified drops: %v", res.Summary["drops_misclassified"])
	}
	if res.Summary["drops_predicate"] == 0 {
		t.Error("no predicate drops at all — mechanism inert?")
	}
	if res.Summary["drops_tail"] > res.Summary["drops_predicate"]/10 {
		t.Errorf("tail drops %v not negligible vs predicate %v",
			res.Summary["drops_tail"], res.Summary["drops_predicate"])
	}
}

func TestE12Shape(t *testing.T) {
	res := run(t, "E12", 8*sim.Second)
	if res.Summary["jain_quench"] < 0.75 || res.Summary["jain_ecn"] < 0.75 {
		t.Errorf("lossless variants unfair: quench %v ecn %v",
			res.Summary["jain_quench"], res.Summary["jain_ecn"])
	}
	if res.Summary["drops_ecn"] != 0 {
		t.Errorf("ECN mode dropped %v packets", res.Summary["drops_ecn"])
	}
}

func TestE13Shape(t *testing.T) {
	res := run(t, "E13", 15*sim.Second)
	if res.Summary["jain_selective_red"] < res.Summary["jain_red"]-0.05 {
		t.Errorf("selective RED lost fairness vs RED: %v vs %v",
			res.Summary["jain_selective_red"], res.Summary["jain_red"])
	}
}

func TestE14Shape(t *testing.T) {
	res := run(t, "E14", 400*sim.Millisecond)
	// EPRCA queue hovers near its congestion threshold (QT = 100).
	meanQ := res.Summary["mean_queue_cells"]
	if meanQ < 20 || meanQ > 400 {
		t.Errorf("EPRCA mean queue %v, expected near its threshold regime", meanQ)
	}
	if res.Summary["jain_tail"] < 0.9 {
		t.Errorf("EPRCA fairness = %v", res.Summary["jain_tail"])
	}
}

func TestE15Shape(t *testing.T) {
	res := run(t, "E15", 400*sim.Millisecond)
	if res.Summary["jain_tail"] < 0.9 {
		t.Errorf("APRC fairness = %v", res.Summary["jain_tail"])
	}
}

func TestE16Shape(t *testing.T) {
	res := run(t, "E16", 400*sim.Millisecond)
	// The paper's Fig. 22 claim: CAPC converges more slowly than Phantom
	// but with a smaller transient queue.
	if c, p := res.Summary["capc_conv_ms"], res.Summary["phantom_conv_ms"]; c >= 0 && p >= 0 && c < p {
		t.Errorf("CAPC converged faster than Phantom (%v < %v ms) — contradicts Fig. 22", c, p)
	}
	if res.Summary["capc_peak_queue"] > res.Summary["phantom_peak_queue"] {
		t.Errorf("CAPC transient queue %v exceeded Phantom's %v — contradicts Fig. 22",
			res.Summary["capc_peak_queue"], res.Summary["phantom_peak_queue"])
	}
}

func TestE17Shape(t *testing.T) {
	res := run(t, "E17", 400*sim.Millisecond)
	for _, alg := range []string{"Phantom", "EPRCA", "APRC", "CAPC"} {
		if res.Summary["jain_"+alg] < 0.85 {
			t.Errorf("%s fairness = %v", alg, res.Summary["jain_"+alg])
		}
		if res.Summary["util_"+alg] < 0.4 {
			t.Errorf("%s utilization = %v", alg, res.Summary["util_"+alg])
		}
	}
}

func TestA01Shape(t *testing.T) {
	res := run(t, "A01", 400*sim.Millisecond)
	if res.Summary["wobble_adaptive"] >= res.Summary["wobble_fixed"] {
		t.Errorf("adaptive gain wobble %v not below fixed %v",
			res.Summary["wobble_adaptive"], res.Summary["wobble_fixed"])
	}
}

func TestA02AndA03Run(t *testing.T) {
	a2 := run(t, "A02", 300*sim.Millisecond)
	if len(a2.Summary) == 0 {
		t.Error("A02 empty summary")
	}
	a3 := run(t, "A03", 300*sim.Millisecond)
	if len(a3.Summary) == 0 {
		t.Error("A03 empty summary")
	}
}

func TestA04Shape(t *testing.T) {
	res := run(t, "A04", 300*sim.Millisecond)
	if res.Summary["worst_relerr"] > 0.05 {
		t.Errorf("fluid model diverges from simulation: worst relerr %v", res.Summary["worst_relerr"])
	}
	for _, k := range []string{"1", "2", "5"} {
		if res.Summary["sim_settle_ms_k"+k] < 0 {
			t.Errorf("simulation never settled for k=%s", k)
		}
	}
}

func TestA05Shape(t *testing.T) {
	res := run(t, "A05", 500*sim.Millisecond)
	if res.Summary["jain_norm"] < 0.95 {
		t.Errorf("normalized gains unfair at k=32: %v", res.Summary["jain_norm"])
	}
	if res.Summary["jain_norm"] < res.Summary["jain_raw"] {
		t.Errorf("normalization did not help: %v vs %v",
			res.Summary["jain_norm"], res.Summary["jain_raw"])
	}
}

func TestE18Shape(t *testing.T) {
	res := run(t, "E18", 500*sim.Millisecond)
	// Both allocators are near max-min fair; the exact one buys the
	// phantom's 1/u share back as utilization.
	if res.Summary["normjain_Phantom"] < 0.95 {
		t.Errorf("Phantom normalized Jain = %v", res.Summary["normjain_Phantom"])
	}
	if res.Summary["normjain_ExactMaxMin"] < 0.9 {
		t.Errorf("exact normalized Jain = %v", res.Summary["normjain_ExactMaxMin"])
	}
	if res.Summary["util_ExactMaxMin"] <= res.Summary["util_Phantom"] {
		t.Errorf("exact util %v not above Phantom %v (the 1/u discount)",
			res.Summary["util_ExactMaxMin"], res.Summary["util_Phantom"])
	}
}

func TestE19Shape(t *testing.T) {
	res := run(t, "E19", 15*sim.Second)
	if res.Summary["minmax_selective_discard"] < res.Summary["minmax_droptail"] {
		t.Errorf("selective discard did not improve Vegas balance: %v vs %v",
			res.Summary["minmax_selective_discard"], res.Summary["minmax_droptail"])
	}
	if res.Summary["minmax_selective_discard"] < 0.85 {
		t.Errorf("selective discard balance = %v", res.Summary["minmax_selective_discard"])
	}
}

func TestE20Shape(t *testing.T) {
	res := run(t, "E20", 8*sim.Second)
	if res.Summary["jain_atm_cloud"] < 0.95 {
		t.Errorf("cloud fairness = %v", res.Summary["jain_atm_cloud"])
	}
	if res.Summary["edge_acr_jain"] < 0.98 {
		t.Errorf("cloud allocations unequal: %v", res.Summary["edge_acr_jain"])
	}
	if res.Summary["jain_atm_cloud"] < res.Summary["jain_ip_droptail"]-0.02 {
		t.Errorf("cloud (%v) not at least as fair as drop-tail (%v)",
			res.Summary["jain_atm_cloud"], res.Summary["jain_ip_droptail"])
	}
}

func TestE21Shape(t *testing.T) {
	res := run(t, "E21", 600*sim.Millisecond)
	if res.Summary["norm_jain"] < 0.93 {
		t.Errorf("normalized Jain on heterogeneous capacities = %v", res.Summary["norm_jain"])
	}
	// Ratios to oracle must be comparable across sessions whose absolute
	// shares differ 3× (no leakage toward the wide-trunk sessions).
	a, b := res.Summary["ratio_allhops"], res.Summary["ratio_edge0"]
	if a <= 0 || b <= 0 || a/b > 1.4 || b/a > 1.4 {
		t.Errorf("ratios diverge: all-hops %v vs edge %v", a, b)
	}
}

func TestE22Shape(t *testing.T) {
	res := run(t, "E22", 400*sim.Millisecond)
	if res.Summary["util_k32"] <= res.Summary["util_k1"] {
		t.Errorf("utilization not increasing with k: %v vs %v",
			res.Summary["util_k1"], res.Summary["util_k32"])
	}
	for _, k := range []string{"1", "2", "4", "8", "16", "32"} {
		meas, th := res.Summary["util_k"+k], res.Summary["theory_util_k"+k]
		if meas < th-0.15 || meas > th+0.15 {
			t.Errorf("k=%s: util %v vs theory %v", k, meas, th)
		}
		if res.Summary["jain_k"+k] < 0.95 {
			t.Errorf("k=%s: jain %v", k, res.Summary["jain_k"+k])
		}
	}
}

// Figures render when not quiet.
func TestFiguresRender(t *testing.T) {
	def, _ := Get("E01")
	res, err := def.Run(Options{Duration: 100 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Figures) < 3 {
		t.Fatalf("E01 rendered %d figures, want ≥3", len(res.Figures))
	}
	for _, f := range res.Figures {
		if !strings.Contains(f, "E01") {
			t.Fatalf("figure missing title:\n%s", f)
		}
	}
}
