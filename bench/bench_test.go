package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v, %v, want 1, 4", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1 (IQR 5.5 over median 5.5)", got)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("single-value quartiles = %v, %v", q1, q3)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {99.9, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of empty sample = %v", got)
	}
}

func TestSupportablePercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{7, 0, false},  // a rep count: median only
		{39, 0, false}, // p75 would leave 9.75 beyond
		{40, 75, true},
		{100, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{3000, 99, true}, // p99.9 would leave 3 beyond
		{10000, 99.9, true},
	} {
		got, ok := supportablePercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d: got p%v %v, want p%v %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "job", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "submit", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, Name: "results", StartNS: 50, EndNS: 90},
		{ID: 3, Parent: 2, Name: "first", StartNS: 50, EndNS: 60},
		// A concurrent sibling overlapping "results" and sticking out of the
		// parent: counted once, clipped to the parent.
		{ID: 4, Parent: 0, Name: "poller", StartNS: 80, EndNS: 120},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		0: 100 - (30 + 40 + 10), // children cover [10,40] ∪ [50,100]
		1: 30,
		2: 30,
		3: 10,
		4: 40,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d (%s) = %d, want %d", id, spans[id].Name, self[id], w)
		}
	}
	// Without the overlapping sibling the tree's self times add up to the
	// root exactly — the budget property the -trace output relies on.
	tree := spans[:4]
	var sum int64
	for _, v := range selfTimes(tree) {
		sum += v
	}
	if sum != tree[0].dur() {
		t.Errorf("self times sum to %d, root lasts %d", sum, tree[0].dur())
	}
	var out bytes.Buffer
	printBudget(&out, tree, 0)
	if !strings.Contains(out.String(), "(100.0%)") {
		t.Errorf("budget does not add up:\n%s", out.String())
	}
}

func TestRecorderOffIsInert(t *testing.T) {
	var rec *recorder
	id := rec.begin(noSpan, "x", 0)
	rec.end(id)
	if id != noSpan || rec.snapshot() != nil {
		t.Errorf("nil recorder recorded something")
	}
	on := newRecorder("w")
	root := on.begin(noSpan, "root", 3)
	child := on.begin(root, "child", 3)
	on.end(child)
	on.end(root)
	s := on.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[1].Workload != "w" || s[1].Rep != 3 || s[0].EndNS < s[1].EndNS {
		t.Errorf("unexpected spans %+v", s)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tphantom-bench\nVmPeak:\t 1234 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n"
	mb, err := parseVmHWM(strings.NewReader(status))
	if err != nil || mb != 20 {
		t.Errorf("parseVmHWM = %v, %v; want 20 MB", mb, err)
	}
	if _, err := parseVmHWM(strings.NewReader("Name:\tx\n")); err == nil {
		t.Error("missing VmHWM line not reported")
	}
	if _, err := parseVmHWM(strings.NewReader("VmHWM:\t12 pages\n")); err == nil {
		t.Error("malformed VmHWM line not reported")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogueMeetsContract holds the metric and workload tables to the
// limits the driver refuses a BENCHMARK.json over.
func TestCatalogueMeetsContract(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			check(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range endToEnd {
		if m.DriverBound <= 0 || m.DriverBound > 0.25 || m.Bound <= 0 || m.Bound > m.DriverBound {
			t.Errorf("%s: bounds %v (-compare), %v (BENCHMARK.json)", m.Name, m.Bound, m.DriverBound)
		}
		if m.Name == mSetup && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		if len(m.On) == 0 {
			t.Errorf("%s: no workload measures it", m.Name)
		}
		for _, w := range m.On {
			if findWorkload(w) == nil {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
	}
}

// TestBenchmarkJSONInSync holds the committed BENCHMARK.json to the
// catalogue it is generated from (bench/run.sh -benchmark-json).
func TestBenchmarkJSONInSync(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the bench directory: %v", err)
	}
	want, err := benchmarkJSON(defaultSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with: bash bench/run.sh -benchmark-json > BENCHMARK.json")
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(doc, k)
	}
	if len(doc) != 0 {
		t.Errorf("BENCHMARK.json has keys outside the contract: %v", doc)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(want))
	}
}

func TestJudge(t *testing.T) {
	lower := &metricDef{Name: "ms", Better: "lower", Bound: 0.10}
	higher := &metricDef{Name: "per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name         string
		m            *metricDef
		base, change []float64
		want         string
	}{
		{"same", lower, steady, steady, verdictOK},
		{"5% slower is inside the bound", lower, steady, []float64{105, 106, 104, 105, 105}, verdictOK},
		{"15% slower", lower, steady, []float64{115, 116, 114, 115, 115}, verdictRegressed},
		{"15% faster", lower, steady, []float64{85, 86, 84, 85, 85}, verdictOK},
		{"throughput down 15%", higher, steady, []float64{85, 86, 84, 85, 85}, verdictRegressed},
		{"throughput up 15%", higher, steady, []float64{115, 116, 114, 115, 115}, verdictOK},
		{"noisy, overlapping", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, verdictUnresolved},
		{"noisy, but every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, verdictOK},
		{"noisy, every run worse beyond the bound", lower, []float64{80, 100, 120, 90, 110}, []float64{180, 200, 220, 190, 210}, verdictRegressed},
	} {
		if got := judge(c.m, c.base, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(scale float64, failed int) *report {
		r := &report{Schema: reportSchema, Seconds: 12, Scale: 1, Workloads: map[string]*workloadReport{}}
		for _, w := range workloads {
			wr := &workloadReport{Seeds: []uint64{1, 2, 3}, Attempted: 100, Failed: failed, EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
			for _, m := range endToEnd {
				v := 100.0
				if m.Better == "higher" {
					v /= scale
				} else {
					v *= scale
				}
				wr.EndToEnd[m.Name] = []float64{v, v * 1.01, v * 0.99}
			}
			for _, m := range perLayer {
				wr.PerLayer[m.Name] = []float64{7, 7, 7}
			}
			r.Workloads[w.Name] = wr
		}
		return r
	}
	dir := t.TempDir()
	write := func(name string, r *report) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk(1, 0))
	for _, c := range []struct {
		name   string
		change *report
		ok     bool
		want   string
	}{
		{"identical", mk(1, 0), true, "no regression"},
		{"40% worse everywhere", mk(1.4, 0), false, verdictRegressed},
		{"failed share rose", mk(1, 1), false, verdictRegressed},
	} {
		var out bytes.Buffer
		ok, err := compareReports(&out, base, write("b.json", c.change))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: ok=%v, output:\n%s", c.name, ok, out.String())
		}
		if !strings.Contains(out.String(), "exact: equal") {
			t.Errorf("%s: exact per-layer metrics not compared", c.name)
		}
	}
	changed := mk(1, 0)
	changed.Workloads[wlATMChain].PerLayer["sim.events_fired"] = []float64{7, 8, 7}
	var out bytes.Buffer
	ok, err := compareReports(&out, base, write("c.json", changed))
	if err != nil {
		t.Fatal(err)
	}
	if ok || !strings.Contains(out.String(), "exact: CHANGED") {
		t.Errorf("a changed exact count passed (ok=%v):\n%s", ok, out.String())
	}
}

// TestSmokeWorkloads runs every workload at 1% size, spans off and on, and
// asserts that every metric it is meant to report is present and that no
// operation failed.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads at 1% size")
	}
	// The benchmark writes its scratch under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for i := range workloads {
		def := &workloads[i]
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(def, 7, 0.2, 0.01, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.Name, trace, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", def.Name, trace, res.Failed, res.Attempted, res.Failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, m := range defs {
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s missing", def.Name, trace, m.Name)
				}
				if !trace && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.Name, m.Name, v)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: %s = %v", def.Name, trace, m.Name, v)
				}
			}
			line, err := contractLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var obj map[string]json.RawMessage
			if err := json.Unmarshal(line, &obj); err != nil {
				t.Fatal(err)
			}
			if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
				t.Errorf("result line keys: %s", line)
			}
		}
	}
}
