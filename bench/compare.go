package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare for one (metric, workload) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: report schema %d, this binary reads %d", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// worsening is how far change is worse than base, as a share of base:
// positive is worse, whatever the metric's direction.
func worsening(m *metricDef, base, change float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - change) / base
	}
	return (change - base) / base
}

// separated reports whether every run of xs reads strictly better (or,
// with worse set, strictly worse) than every run of ys.
func separated(m *metricDef, xs, ys []float64, worse bool) bool {
	if len(xs) == 0 || len(ys) == 0 {
		return false
	}
	for _, x := range xs {
		for _, y := range ys {
			w := worsening(m, y, x) // x against y
			if worse && w <= 0 || !worse && w >= 0 {
				return false
			}
		}
	}
	return true
}

// judge applies a bound to one end-to-end metric on one workload. The
// change regresses when its median is worse than the base's by more than
// the bound. When either side's own run-to-run spread is wider than the
// bound the medians cannot carry that judgement: the pair is unresolved,
// unless the runs separate completely (every run of the change better than
// every run of the base is ok; every one worse, beyond the bound, is a
// regression).
func judge(m *metricDef, base, change []float64) string {
	worse := worsening(m, median(base), median(change))
	if spread(base) > m.Bound || spread(change) > m.Bound {
		switch {
		case separated(m, change, base, false):
			return verdictOK
		case worse > m.Bound && separated(m, change, base, true):
			return verdictRegressed
		}
		return verdictUnresolved
	}
	if worse > m.Bound {
		return verdictRegressed
	}
	return verdictOK
}

func equalValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareReports judges report B (the change) against report A (the base):
// one row per (end-to-end metric, workload) with both medians, the ratio
// B/A and each side's spread; then the failed-operation shares; then the
// per-layer metrics (exact ones must be equal run for run, the rest are
// shown with their ratio). It returns false — a non-zero exit — on any
// regression, any rise in a workload's failed share, or any exact count
// that differs.
func compareReports(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	if a.Seconds != b.Seconds || a.Scale != b.Scale {
		return false, fmt.Errorf("reports were run with different settings (%gs scale %g vs %gs scale %g)", a.Seconds, a.Scale, b.Seconds, b.Scale)
	}
	fmt.Fprintf(w, "base   A: %s (commit %s, %s, %d CPUs)\nchange B: %s (commit %s, %s, %d CPUs)\n",
		pathA, a.Host.Commit, a.Host.GoVersion, a.Host.CPUs, pathB, b.Host.Commit, b.Host.GoVersion, b.Host.CPUs)

	ok := true
	fmt.Fprintf(w, "\n%-18s %-12s %14s %14s %9s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "B/A", "spread A", "spread B", "bound", "verdict")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-18s missing from one report\n", wl.Name)
			ok = false
			continue
		}
		for i := range endToEnd {
			m := &endToEnd[i]
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-18s %-12s missing from one report\n", wl.Name, m.Name)
				ok = false
				continue
			}
			verdict := judge(m, va, vb)
			if verdict == verdictRegressed {
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-12s %14.6g %14.6g %9.4f %7.1f%% %7.1f%% %5.0f%%  %s\n", wl.Name, m.Name,
				median(va), median(vb), median(vb)/median(va), 100*spread(va), 100*spread(vb), 100*m.Bound, verdict)
		}
	}

	fmt.Fprintf(w, "\n%-18s %16s %16s  %s\n", "workload", "failed/attempted A", "failed/attempted B", "verdict")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		shareA := float64(wa.Failed) / float64(max(wa.Attempted, 1))
		shareB := float64(wb.Failed) / float64(max(wb.Attempted, 1))
		verdict := verdictOK
		if shareB > shareA {
			verdict = verdictRegressed
			ok = false
		}
		fmt.Fprintf(w, "%-18s %9d/%-8d %9d/%-8d  %s\n", wl.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, verdict)
	}

	fmt.Fprintf(w, "\n%-18s %-38s %14s %14s %9s  %s\n", "workload", "per-layer metric", "median A", "median B", "B/A", "note")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil || wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		for i := range perLayer {
			m := &perLayer[i]
			if !measuredOn(m, wl.Name) {
				continue
			}
			va, vb := wa.PerLayer[m.Name], wb.PerLayer[m.Name]
			note := ""
			if m.Exact {
				note = "exact: equal"
				if !equalValues(va, vb) {
					note = "exact: CHANGED — the model or the data format changed"
					ok = false
				}
			}
			ratio := 0.0
			if median(va) != 0 {
				ratio = median(vb) / median(va)
			}
			fmt.Fprintf(w, "%-18s %-38s %14.6g %14.6g %9.4f  %s\n", wl.Name, m.Name, median(va), median(vb), ratio, note)
		}
	}
	if ok {
		fmt.Fprintln(w, "\nno regression: every end-to-end pair is within its bound or unresolved, no failed share rose, every exact count is equal")
	} else {
		fmt.Fprintln(w, "\nREGRESSION: see the rows marked regressed or CHANGED")
	}
	return ok, nil
}
