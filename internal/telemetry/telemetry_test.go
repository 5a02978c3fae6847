package telemetry

import (
	"fmt"
	"strings"
	"testing"
)

func TestNilRegistryIsFree(t *testing.T) {
	var r *Registry
	c := r.Counter("x.count")
	g := r.Gauge("x.q_peak")
	c.Inc()
	c.Add(10)
	g.Observe(99)
	if c.e != nil || g.e != nil {
		t.Fatal("a nil registry's handles must be inert")
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", snap)
	}
}

func TestNilHandleAllocFree(t *testing.T) {
	var r *Registry
	c := r.Counter("x.count")
	g := r.Gauge("x.q_peak")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Observe(7)
	})
	if allocs != 0 {
		t.Fatalf("inert handle ops allocated %.1f/op, want 0", allocs)
	}
}

func TestLiveHandleAllocFree(t *testing.T) {
	r := New()
	c := r.Counter("x.count")
	g := r.Gauge("x.q_peak")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Observe(7)
	})
	if allocs != 0 {
		t.Fatalf("live handle ops allocated %.1f/op, want 0", allocs)
	}
}

func TestCounterAndGaugeSemantics(t *testing.T) {
	r := New()
	c := r.Counter("link.cells_sent")
	c.Inc()
	c.Add(9)
	if got := c.e.v; got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	g := r.Gauge("link.queue_cells_peak")
	g.Observe(5)
	g.Observe(3) // below the high-water mark: ignored
	g.Observe(8)
	if got := g.e.v; got != 8 {
		t.Fatalf("gauge = %d, want 8", got)
	}
}

func TestIdempotentRegistrationSharesAccumulator(t *testing.T) {
	r := New()
	a := r.Counter("link.cells_sent")
	b := r.Counter("link.cells_sent")
	a.Inc()
	b.Add(2)
	if a.e.v != 3 || b.e.v != 3 {
		t.Fatalf("handles read %d/%d, want shared 3", a.e.v, b.e.v)
	}
	if len(r.entries) != 1 {
		t.Fatalf("%d entries, want 1", len(r.entries))
	}
}

func TestSuffixDiscipline(t *testing.T) {
	r := New()
	mustPanic(t, func() { r.Counter("x.bad_peak") })
	mustPanic(t, func() { r.Gauge("x.bad") })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestSnapshotIsDetached(t *testing.T) {
	r := New()
	c := r.Counter("x.count")
	c.Add(1)
	snap := r.Snapshot()
	c.Add(100)
	if snap["x.count"] != 1 {
		t.Fatalf("snapshot mutated to %d", snap["x.count"])
	}
	if r.Snapshot()["x.count"] != 101 {
		t.Fatal("live value lost")
	}
}

func TestMergeSumAndMax(t *testing.T) {
	dst := map[string]uint64{"a.count": 1, "a.q_peak": 5}
	Merge(dst, map[string]uint64{"a.count": 2, "a.q_peak": 3, "b.count": 4})
	want := map[string]uint64{"a.count": 3, "a.q_peak": 5, "b.count": 4}
	for k, v := range want {
		if dst[k] != v {
			t.Errorf("%s = %d, want %d", k, dst[k], v)
		}
	}
	// Max direction: a larger incoming peak wins.
	Merge(dst, map[string]uint64{"a.q_peak": 9})
	if dst["a.q_peak"] != 9 {
		t.Errorf("a.q_peak = %d, want 9", dst["a.q_peak"])
	}
}

// TestMergeOrderIndependent is the unit-level half of the fleet determinism
// guarantee: folding the same snapshots in any order gives identical totals.
func TestMergeOrderIndependent(t *testing.T) {
	snaps := []map[string]uint64{
		{"c.count": 1, "c.q_peak": 10},
		{"c.count": 2, "c.q_peak": 30},
		{"c.count": 4, "c.q_peak": 20},
	}
	fwd := map[string]uint64{}
	for _, s := range snaps {
		Merge(fwd, s)
	}
	rev := map[string]uint64{}
	for i := len(snaps) - 1; i >= 0; i-- {
		Merge(rev, snaps[i])
	}
	if fwd["c.count"] != rev["c.count"] || fwd["c.q_peak"] != rev["c.q_peak"] {
		t.Fatalf("order-dependent merge: %v vs %v", fwd, rev)
	}
	if fwd["c.count"] != 7 || fwd["c.q_peak"] != 30 {
		t.Fatalf("totals %v, want count=7 peak=30", fwd)
	}
}

func TestWriteTextSorted(t *testing.T) {
	var sb strings.Builder
	_, err := WriteText(&sb, map[string]uint64{"b.count": 2, "a.count": 1}, "  ")
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Fatalf("unsorted output:\n%s", out)
	}
}

func TestWriteProm(t *testing.T) {
	var sb strings.Builder
	_, err := WriteProm(&sb, map[string]uint64{"link.cells_sent": 12}, map[string]string{"experiment": "E01"})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# TYPE phantom_counter untyped") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
	if !strings.Contains(out, `phantom_counter{name="link.cells_sent",experiment="E01"} 12`) {
		t.Fatalf("missing sample line:\n%s", out)
	}
}

// TestWritePromHistogram pins the native histogram exposition: snapshot
// bucket keys re-assemble into cumulative _bucket{le=...} lines with the
// real _sum and _count, and the ".bNN"/".sum" keys themselves never leak
// into the counter family.
func TestWritePromHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("link.queue_depth_cells")
	h.Observe(0) // bucket 0, le="0"
	h.Observe(1) // bucket 1, le="1"
	h.Observe(3) // bucket 2, le="3"
	h.Observe(3)
	h.Observe(1 << 50) // overflow bucket: only visible on the +Inf line
	r.Counter("link.cells_sent").Add(7)

	var sb strings.Builder
	if _, err := WriteProm(&sb, r.Snapshot(), map[string]string{"experiment": "E01"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE phantom_hist histogram",
		`phantom_hist_bucket{name="link.queue_depth_cells",le="0",experiment="E01"} 1`,
		`phantom_hist_bucket{name="link.queue_depth_cells",le="1",experiment="E01"} 2`,
		`phantom_hist_bucket{name="link.queue_depth_cells",le="3",experiment="E01"} 4`,
		`phantom_hist_bucket{name="link.queue_depth_cells",le="+Inf",experiment="E01"} 5`,
		fmt.Sprintf(`phantom_hist_sum{name="link.queue_depth_cells",experiment="E01"} %d`, 7+uint64(1)<<50),
		`phantom_hist_count{name="link.queue_depth_cells",experiment="E01"} 5`,
		`phantom_counter{name="link.cells_sent",experiment="E01"} 7`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	for _, reject := range []string{".b0", ".sum"} {
		if strings.Contains(out, reject) {
			t.Fatalf("histogram key %q leaked into the counter family:\n%s", reject, out)
		}
	}
}

// TestBucketKey pins the snapshot-key parser against near-miss names.
func TestBucketKey(t *testing.T) {
	if base, b, ok := bucketKey("link.queue_depth_cells.b07"); !ok || base != "link.queue_depth_cells" || b != 7 {
		t.Fatalf("bucketKey = %q,%d,%v", base, b, ok)
	}
	for _, miss := range []string{"x.b7", "x.bXY", "x.sum", "b07", "x.b077", "plain"} {
		if _, _, ok := bucketKey(miss); ok {
			t.Fatalf("bucketKey accepted %q", miss)
		}
	}
}
