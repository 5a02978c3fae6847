package store

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// testSegment fills a segment with one run's worth of every block kind,
// deterministically derived from idx.
func testSegment(w *Writer, idx int) *Segment {
	seg := w.NewSegment(RunMeta{Experiment: "e2", Sweep: idx, End: sim.Time(1000*idx + 100)})
	var acr, queue []metrics.Point
	for p := 0; p < 24; p++ {
		t := sim.Time(1000*idx + p)
		acr = append(acr, metrics.Point{T: t, V: float64(idx) + float64(p)/16})
		queue = append(queue, metrics.Point{T: t, V: float64((idx * p) % 7)})
	}
	seg.AddSeries("acr_a", acr)
	seg.AddSeries("queue_t0", queue)
	seg.AddCounters(map[string]uint64{
		"link.cells_in":  uint64(idx * 3),
		"link.cells_out": uint64(idx*3 - idx/2),
		"src.rm_sent":    uint64(idx),
	})
	seg.AddSummary(map[string]float64{
		"goodput_a":       float64(idx) * 1.5,
		"jain_normalized": 1 - 1/float64(idx+2),
	})
	var events []trace.Event
	for p := 0; p < 8; p++ {
		events = append(events, trace.NewEvent(sim.Time(1000*idx+p), "link[0]", "enqueue",
			trace.I("depth", int64(p)), trace.F("acr", float64(idx)+0.5)))
	}
	events = append(events, trace.NewEvent(sim.Time(1000*idx+50), "src[a]", "rm_return",
		trace.S("dir", "backward")))
	seg.AddTrace(events)
	return seg
}

// readAll drains every kind from a campaign for content comparison.
type campaignDump struct {
	series    []SeriesChunk
	counters  []RunCounters
	summaries []RunSummary
	traces    []TraceChunk
}

func dumpCampaign(t *testing.T, dir string, q Query) campaignDump {
	t.Helper()
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var d campaignDump
	copyPts := func(c SeriesChunk) error {
		c.Points = append([]metrics.Point(nil), c.Points...)
		d.series = append(d.series, c)
		return nil
	}
	if err := r.Series(q, copyPts); err != nil {
		t.Fatalf("Series: %v", err)
	}
	if err := r.Counters(q, func(c RunCounters) error { d.counters = append(d.counters, c); return nil }); err != nil {
		t.Fatalf("Counters: %v", err)
	}
	if err := r.Summaries(q, func(s RunSummary) error { d.summaries = append(d.summaries, s); return nil }); err != nil {
		t.Fatalf("Summaries: %v", err)
	}
	if err := r.Trace(q, func(c TraceChunk) error {
		c.Events = append([]trace.Event(nil), c.Events...)
		d.traces = append(d.traces, c)
		return nil
	}); err != nil {
		t.Fatalf("Trace: %v", err)
	}
	return d
}

// TestRoundTripAllKinds writes one run of every block kind under both
// codecs and reads back bit-identical content.
func TestRoundTripAllKinds(t *testing.T) {
	for _, comp := range []Compression{CompressionNone, CompressionFlate} {
		t.Run(fmt.Sprintf("comp=%d", comp), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Create(dir, Options{Compression: comp})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(testSegment(w, 7)); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			d := dumpCampaign(t, dir, Query{Sweep: AnySweep})
			if len(d.series) != 2 {
				t.Fatalf("series chunks = %d, want 2", len(d.series))
			}
			if d.series[0].Name != "acr_a" || d.series[1].Name != "queue_t0" {
				t.Fatalf("series names = %q, %q", d.series[0].Name, d.series[1].Name)
			}
			if d.series[0].Experiment != "e2" || d.series[0].Sweep != 7 {
				t.Fatalf("series identity = %q/%d", d.series[0].Experiment, d.series[0].Sweep)
			}
			for p := 0; p < 24; p++ {
				got := d.series[0].Points[p]
				want := metrics.Point{T: sim.Time(7000 + p), V: 7 + float64(p)/16}
				if got.T != want.T || math.Float64bits(got.V) != math.Float64bits(want.V) {
					t.Fatalf("point %d = %+v, want %+v", p, got, want)
				}
			}
			if len(d.counters) != 1 || d.counters[0].Map()["link.cells_out"] != 18 {
				t.Fatalf("counters = %+v", d.counters)
			}
			if d.counters[0].At != sim.Time(7100) {
				t.Fatalf("counters At = %d, want 7100", d.counters[0].At)
			}
			if len(d.summaries) != 1 || d.summaries[0].Map()["goodput_a"] != 10.5 {
				t.Fatalf("summaries = %+v", d.summaries)
			}
			if len(d.traces) != 1 || len(d.traces[0].Events) != 9 {
				t.Fatalf("traces = %d chunks (events %v)", len(d.traces), d.traces)
			}
			ev := d.traces[0].Events[8]
			if ev.Component != "src[a]" || ev.Kind != "rm_return" || ev.Detail() != "dir=backward" {
				t.Fatalf("trace event = %+v (detail %q)", ev, ev.Detail())
			}
			ev0 := d.traces[0].Events[0]
			if ev0.Detail() != "depth=0 acr=7.5" {
				t.Fatalf("typed fields round-trip: %q", ev0.Detail())
			}
		})
	}
}

// TestZeroFieldRoundTrip: a zero trace.Field keeps its slot and its lack
// of kind through a store block, next to a typed zero value.
func TestZeroFieldRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seg := w.NewSegment(RunMeta{Experiment: "e", End: 10})
	seg.AddTrace([]trace.Event{trace.NewEvent(5, "c", "k", trace.Field{}, trace.I("x", 0))})
	if err := w.Append(seg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	d := dumpCampaign(t, dir, Query{Sweep: AnySweep})
	if len(d.traces) != 1 || len(d.traces[0].Events) != 1 {
		t.Fatalf("traces = %+v", d.traces)
	}
	ev := d.traces[0].Events[0]
	if f := ev.Fields(); len(f) != 2 || f[0] != (trace.Field{}) || f[1] != trace.I("x", 0) {
		t.Fatalf("fields read back as %+v (detail %q)", f, ev.Detail())
	}
}

// TestEmptyCampaign pins the edges: an existing-but-empty directory is a
// valid empty campaign; a missing directory is an error; a writer that
// commits nothing leaves a readable empty campaign.
func TestEmptyCampaign(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(empty): %v", err)
	}
	if st := r.Stats(); st.Files != 0 {
		t.Fatalf("empty campaign has %d files", st.Files)
	}
	n := 0
	if err := r.Series(Query{Sweep: AnySweep}, func(SeriesChunk) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("empty campaign yielded %d chunks", n)
	}

	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("Open(missing dir) succeeded")
	}

	w, err := Create(filepath.Join(dir, "sub"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(dir, "sub")); err != nil {
		t.Fatalf("Open(zero-run campaign): %v", err)
	}
}

// TestSingleBlockFile: the smallest possible campaign — one block in one
// file — seals and reads back.
func TestSingleBlockFile(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seg := w.NewSegment(RunMeta{Experiment: "solo", End: 10})
	seg.AddSummary(map[string]float64{"x": 1})
	if err := w.Append(seg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := campaignFiles(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("files = %v, %v", names, err)
	}
	d := dumpCampaign(t, dir, Query{Sweep: AnySweep})
	if len(d.summaries) != 1 || d.summaries[0].Map()["x"] != 1 {
		t.Fatalf("summaries = %+v", d.summaries)
	}
}

// TestFileRoll forces the fixed index to fill: SlotsPerFile 4 and 10 blocks
// must roll across 3 sealed files with every block still readable, in
// order.
func TestFileRoll(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{SlotsPerFile: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		seg := w.NewSegment(RunMeta{Experiment: "roll", Sweep: i, End: sim.Time(i)})
		seg.AddSummary(map[string]float64{"i": float64(i)})
		if err := w.Append(seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := campaignFiles(dir)
	if err != nil || len(names) != 3 {
		t.Fatalf("files = %v, %v (want 3)", names, err)
	}
	d := dumpCampaign(t, dir, Query{Sweep: AnySweep})
	if len(d.summaries) != 10 {
		t.Fatalf("summaries = %d, want 10", len(d.summaries))
	}
	for i, s := range d.summaries {
		if s.Sweep != i || s.Map()["i"] != float64(i) {
			t.Fatalf("summary %d out of order: %+v", i, s)
		}
	}
}

// TestWindowQuerySkipsBlocks is the acceptance test for index pushdown: on
// a 10⁴-run campaign, a time-window query pinned to one run's range must
// decompress only the matching block — every other block is rejected from
// its slot alone.
func TestWindowQuerySkipsBlocks(t *testing.T) {
	const runs = 10_000
	dir := t.TempDir()
	w, err := Create(dir, Options{Compression: CompressionNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		seg := w.NewSegment(RunMeta{Experiment: "sweep", Sweep: i, End: sim.Time(1000*i + 3)})
		seg.AddSeries("acr", []metrics.Point{
			{T: sim.Time(1000 * i), V: float64(i)},
			{T: sim.Time(1000*i + 1), V: float64(i) + 0.25},
			{T: sim.Time(1000*i + 2), V: float64(i) + 0.5},
			{T: sim.Time(1000*i + 3), V: float64(i) + 0.75},
		})
		if err := w.Append(seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const target = 5_000
	q := Query{Sweep: AnySweep, From: sim.Time(1000 * target), To: sim.Time(1000*target + 3)}
	var chunks int
	var pts int
	if err := r.Series(q, func(c SeriesChunk) error {
		chunks++
		pts += len(c.Points)
		if c.Sweep != target {
			t.Fatalf("window hit sweep %d, want %d", c.Sweep, target)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if chunks != 1 || pts != 4 {
		t.Fatalf("window query: %d chunks / %d points, want 1 / 4", chunks, pts)
	}
	st := r.Stats()
	if st.Blocks != runs {
		t.Fatalf("considered %d blocks, want %d", st.Blocks, runs)
	}
	if st.BlocksScanned != 1 {
		t.Fatalf("scanned %d blocks, want exactly 1", st.BlocksScanned)
	}
	if st.BlocksSkipped != runs-1 {
		t.Fatalf("skipped %d blocks, want %d", st.BlocksSkipped, runs-1)
	}
}

// TestComponentSkip: a trace query for one component skips
// single-component blocks of other components without decompressing, and
// row-filters mixed blocks.
func TestComponentSkip(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seg := w.NewSegment(RunMeta{Experiment: "tr", End: 100})
	// Block 1: all link[0]. Block 2: all src[a]. Block 3: mixed.
	seg.AddTrace([]trace.Event{
		trace.NewEvent(1, "link[0]", "enqueue"),
		trace.NewEvent(2, "link[0]", "dequeue"),
	})
	seg.AddTrace([]trace.Event{
		trace.NewEvent(3, "src[a]", "cell_sent"),
	})
	seg.AddTrace([]trace.Event{
		trace.NewEvent(4, "link[0]", "enqueue"),
		trace.NewEvent(5, "src[a]", "cell_sent"),
	})
	if err := w.Append(seg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []sim.Time
	if err := r.Trace(Query{Component: "src[a]", Sweep: AnySweep}, func(c TraceChunk) error {
		for _, e := range c.Events {
			got = append(got, e.T)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []sim.Time{3, 5}) {
		t.Fatalf("component filter returned times %v, want [3 5]", got)
	}
	st := r.Stats()
	if st.BlocksSkipped != 1 || st.BlocksScanned != 2 {
		t.Fatalf("stats = %+v, want 1 skipped (link-only block), 2 scanned", st)
	}
}

// TestCRCCorruption: a flipped byte in the block region must surface as a
// CRC error on read, not as silent bad data.
func TestCRCCorruption(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{SlotsPerFile: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testSegment(w, 3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileName(0))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dataStart := headerSize + 8*slotSize
	buf[dataStart+2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir) // index is intact; corruption is in a block
	if err != nil {
		t.Fatalf("Open after block corruption: %v", err)
	}
	err = r.Series(Query{Sweep: AnySweep}, func(SeriesChunk) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("corrupted block read error = %v, want CRC mismatch", err)
	}
}

// TestUnsealedRejected: a file whose sealed marker never landed (crashed
// writer) must be rejected at Open.
func TestUnsealedRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testSegment(w, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileName(0))
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0, 0, 0, 0}, 16); err != nil { // sealed := 0
		t.Fatal(err)
	}
	f.Close()
	_, err = Open(dir)
	if err == nil || !strings.Contains(err.Error(), "unsealed") {
		t.Fatalf("Open(unsealed) error = %v, want unsealed rejection", err)
	}
}

// dirContents reads every campaign file's bytes, keyed by name.
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := campaignFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		out[n] = b
	}
	return out
}

// TestCommitDeterminism is the concurrent-writer contract: N workers
// committing segments out of order through the reorder window produce a
// campaign byte-identical to a single sequential appender.
func TestCommitDeterminism(t *testing.T) {
	const runs = 64
	opts := Options{SlotsPerFile: 16} // force several file rolls

	seqDir := t.TempDir()
	sw, err := Create(seqDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		if err := sw.Append(testSegment(sw, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	parDir := t.TempDir()
	pw, err := Create(parDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Scrambled index order across 4 workers: (i*37+11) mod 64 is a
	// permutation, so commits arrive far from sequentially.
	idxCh := make(chan int, runs)
	for i := 0; i < runs; i++ {
		idxCh <- (i*37 + 11) % runs
	}
	close(idxCh)
	var wg sync.WaitGroup
	for wkr := 0; wkr < 4; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				seg := testSegment(pw, idx)
				if err := pw.Commit(idx, seg); err != nil {
					t.Errorf("Commit(%d): %v", idx, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}

	seq, par := dirContents(t, seqDir), dirContents(t, parDir)
	if len(seq) == 0 || len(seq) != len(par) {
		t.Fatalf("file counts differ: %d vs %d", len(seq), len(par))
	}
	for name, b := range seq {
		if !reflect.DeepEqual(b, par[name]) {
			t.Fatalf("%s differs between sequential and 4-worker campaign", name)
		}
	}
}

// TestCloseGap: a committed index sequence with a hole must fail Close —
// silently dropping parked segments would corrupt run order.
func TestCloseGap(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seg := w.NewSegment(RunMeta{Experiment: "gap"})
	seg.AddSummary(map[string]float64{"x": 1})
	if err := w.Commit(1, seg); err != nil { // index 0 never arrives
		t.Fatal(err)
	}
	err = w.Close()
	if err == nil || !strings.Contains(err.Error(), "uncommitted") {
		t.Fatalf("Close with gap = %v, want uncommitted error", err)
	}
}

// TestDoubleCommit: the same run index landing twice is a caller bug the
// writer must refuse.
func TestDoubleCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Segment {
		s := w.NewSegment(RunMeta{Experiment: "dup"})
		s.AddSummary(map[string]float64{"x": 1})
		return s
	}
	if err := w.Commit(0, mk()); err != nil {
		t.Fatal(err)
	}
	err = w.Commit(0, mk())
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("double commit = %v, want refusal", err)
	}
}

// TestExperimentAndNamePushdown: exact-key filters reject blocks from the
// index alone — hash pre-filter plus exact re-check after decompression.
func TestExperimentAndNamePushdown(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, exp := range []string{"alpha", "beta"} {
		seg := w.NewSegment(RunMeta{Experiment: exp, Sweep: i, End: 10})
		seg.AddSeries("acr", []metrics.Point{{T: 1, V: float64(i)}})
		seg.AddSeries("queue", []metrics.Point{{T: 2, V: float64(i) * 2}})
		if err := w.Append(seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []SeriesChunk
	q := Query{Experiment: "beta", Name: "queue", Sweep: AnySweep}
	if err := r.Series(q, func(c SeriesChunk) error { got = append(got, c); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Experiment != "beta" || got[0].Name != "queue" || got[0].Points[0].V != 2 {
		t.Fatalf("pushdown query returned %+v", got)
	}
	st := r.Stats()
	if st.BlocksScanned != 1 || st.BlocksSkipped != 3 {
		t.Fatalf("stats = %+v, want 1 scanned / 3 skipped", st)
	}
}

// TestAddTraceRunsEqualOneSlice: a chronological event sequence handed
// over as consecutive runs (a wrapped recorder's two halves) encodes to the
// very blocks its concatenation does, including blocks that straddle a
// run boundary and empty runs.
func TestAddTraceRunsEqualOneSlice(t *testing.T) {
	w, err := Create(t.TempDir(), Options{BlockRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var all []trace.Event
	for i := 0; i < 11; i++ {
		comp := "link[0]"
		if i >= 9 {
			comp = "src[a]"
		}
		all = append(all, trace.NewEvent(sim.Time(10*i), comp, "enqueue",
			trace.I("depth", int64(i)), trace.S("dir", fmt.Sprint("d", i%3))))
	}
	one := w.NewSegment(RunMeta{Experiment: "tr", End: 200})
	one.AddTrace(all)
	if len(one.blocks) != 3 {
		t.Fatalf("11 events at 4 rows a block made %d blocks, want 3", len(one.blocks))
	}
	for _, cut := range []int{0, 1, 4, 6, 11} {
		split := w.NewSegment(RunMeta{Experiment: "tr", End: 200})
		runs := [][]trace.Event{nil, all[:cut], nil, all[cut:]}
		split.AddTrace(runs...)
		if !reflect.DeepEqual(split.blocks, one.blocks) {
			t.Errorf("cut at %d: blocks differ from the single-slice encoding", cut)
		}
		if len(runs[1]) != cut || len(runs[3]) != 11-cut {
			t.Errorf("cut at %d: AddTrace changed the caller's runs", cut)
		}
	}
	none := w.NewSegment(RunMeta{Experiment: "tr", End: 200})
	none.AddTrace()
	none.AddTrace(nil, nil)
	if len(none.blocks) != 0 {
		t.Errorf("empty runs made %d blocks", len(none.blocks))
	}
}
