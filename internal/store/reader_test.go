package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// readBlock fetches, CRC-checks and decompresses one block on its own,
// into fresh buffers.
func readBlock(f *os.File, path string, i int, s *slot) ([]byte, error) {
	enc := make([]byte, s.encLen)
	if _, err := f.ReadAt(enc, int64(s.off)); err != nil {
		return nil, fmt.Errorf("store: %s: block %d read: %w", path, i, err)
	}
	if crc := crc32.ChecksumIEEE(enc); crc != s.crc {
		return nil, fmt.Errorf("store: %s: block %d CRC mismatch (%08x != %08x): corrupt file", path, i, crc, s.crc)
	}
	return decompress(s.comp, enc, int(s.rawLen))
}

// decompress decodes enc back to rawLen payload bytes.
func decompress(comp Compression, enc []byte, rawLen int) ([]byte, error) {
	switch comp {
	case CompressionNone:
		if len(enc) != rawLen {
			return nil, fmt.Errorf("store: raw block length %d, slot says %d", len(enc), rawLen)
		}
		return enc, nil
	case CompressionFlate:
		fr := flateReaders.Get().(io.ReadCloser)
		if err := fr.(flate.Resetter).Reset(bytes.NewReader(enc), nil); err != nil {
			flateReaders.Put(fr)
			return nil, err
		}
		raw := make([]byte, rawLen)
		_, err := io.ReadFull(fr, raw)
		flateReaders.Put(fr)
		if err != nil {
			return nil, fmt.Errorf("store: short block decompress: %w", err)
		}
		return raw, nil
	}
	return nil, fmt.Errorf("store: unknown compression %d", comp)
}

// refScan is the reader's scan as it was before zone maps and coalesced
// reads: every slot of every file is walked and matched on its own, and
// every matching block is read alone (readBlock). TestZoneSkipIsInvisible
// holds Reader.scan to it.
func refScan(r *Reader, kind Kind, q Query, fn func(s *slot, raw []byte) error) (ScanStats, error) {
	var st ScanStats
	expHash := hashStr(q.Experiment)
	nameHash := hashStr(q.Name)
	compHash := hashStr(q.Component)
	for _, file := range r.files {
		var f *os.File
		for i := range file.slots {
			s := &file.slots[i]
			if s.kind != kind {
				continue
			}
			st.Blocks++
			if !q.matchSlot(s, expHash, nameHash, compHash) {
				st.BlocksSkipped++
				continue
			}
			if f == nil {
				var err error
				if f, err = os.Open(file.path); err != nil {
					return st, err
				}
				defer f.Close()
			}
			raw, err := readBlock(f, file.path, i, s)
			if err != nil {
				return st, err
			}
			st.BlocksScanned++
			st.BytesRead += int64(s.encLen)
			if err := fn(s, raw); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

// zoneCampaign writes a random campaign: two experiments interleaved, sweep
// indexes committed out of order, runs laid out along simulated time in
// commit order with neighbours overlapping, series and trace split into
// small blocks, and every block kind — so zones straddle each other and a
// window's edge often sits on a zone's edge. One run in three also carries
// a large trace block (kilobytes of random text in one event's field, now
// and then more than readSpan), so a scan's reads split at the gap it
// leaves between two small blocks and at the span cap.
func zoneCampaign(t *testing.T, rng *rand.Rand, dir string) {
	t.Helper()
	comp := []Compression{CompressionNone, CompressionFlate}[rng.Intn(2)]
	w, err := Create(dir, Options{Compression: comp, SlotsPerFile: 4 + rng.Intn(13), BlockRows: 1 + rng.Intn(6)})
	if err != nil {
		t.Fatal(err)
	}
	runs := 8 + rng.Intn(24)
	sweeps := rng.Perm(runs)
	for i := 0; i < runs; i++ {
		sweep := sweeps[i] / 2 // each sweep index shows up about twice
		exp := []string{"alpha", "beta"}[rng.Intn(2)]
		base := sim.Time(100*i + rng.Intn(150))
		n := 1 + rng.Intn(12)
		seg := w.NewSegment(RunMeta{Experiment: exp, Sweep: sweep, End: base + sim.Time(10*n)})
		for _, name := range []string{"acr", "queue"} {
			if rng.Intn(4) == 0 {
				continue
			}
			pts := make([]metrics.Point, n)
			for p := range pts {
				pts[p] = metrics.Point{T: base + sim.Time(10*p), V: float64(i) + float64(p)/8}
			}
			seg.AddSeries(name, pts)
		}
		if rng.Intn(3) > 0 {
			seg.AddCounters(map[string]uint64{"cells": uint64(i)})
		}
		if rng.Intn(3) > 0 {
			seg.AddSummary(map[string]float64{"goodput": float64(i)})
		}
		var events []trace.Event
		for p := 0; p < rng.Intn(6); p++ {
			events = append(events, trace.NewEvent(base+sim.Time(7*p), []string{"link[0]", "src[a]"}[rng.Intn(2)], "enqueue"))
		}
		if rng.Intn(3) == 0 {
			text := make([]byte, 1<<10+rng.Intn(48<<10))
			if rng.Intn(10) == 0 {
				text = make([]byte, readSpan+rng.Intn(readSpan/4))
			}
			for b := range text {
				text[b] = 'a' + byte(rng.Intn(26))
			}
			events = append(events, trace.NewEvent(base+sim.Time(7*len(events)), "link[0]", "blob", trace.S("text", string(text))))
		}
		seg.AddTrace(events)
		if err := w.Append(seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// corruptBlock flips a byte inside one small block that is not its file's
// first, so a scan of its kind that reads its predecessor reads it in the
// same span. It returns the damaged block's slot.
func corruptBlock(t *testing.T, rng *rand.Rand, r *Reader) *slot {
	t.Helper()
	type pick struct {
		path string
		s    *slot
	}
	var picks []pick
	for _, f := range r.files {
		for i := 1; i < len(f.slots); i++ {
			if s := &f.slots[i]; s.kind != KindTrace && s.encLen > 0 {
				picks = append(picks, pick{f.path, s})
			}
		}
	}
	if len(picks) == 0 {
		return nil
	}
	p := picks[rng.Intn(len(picks))]
	flipByte(t, p.path, int64(p.s.off)+int64(p.s.encLen)/2)
	return p.s
}

// flipByte inverts the byte at off in the file at path.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// truncateFile cuts one of the reader's files, after Open, to a length
// inside its blocks.
func truncateFile(t *testing.T, rng *rand.Rand, r *Reader) {
	t.Helper()
	f := r.files[rng.Intn(len(r.files))]
	info, err := os.Stat(f.path)
	if err != nil {
		t.Fatal(err)
	}
	first := int64(f.slots[0].off)
	if err := os.Truncate(f.path, first+rng.Int63n(info.Size()-first)); err != nil {
		t.Fatal(err)
	}
}

// decodeBlock runs the decoder of the block's kind. The scan tests keep
// what it returns past the callback, so a decoder that held on to raw —
// which the scan reuses — would show.
func decodeBlock(s *slot, raw []byte) any {
	switch s.kind {
	case KindSeries:
		exp, name, pts, err := decodeSeriesBlock(raw, int(s.rows))
		return []any{exp, name, pts, err}
	case KindCounters:
		rc, err := decodeColumnsBlock(raw, int(s.rows), RunCounters{})
		return []any{rc, err}
	case KindTrace:
		exp, events, err := decodeTraceBlock(raw, int(s.rows))
		return []any{exp, events, err}
	}
	rs, err := decodeColumnsBlock(raw, int(s.rows), RunSummary{})
	return []any{rs, err}
}

// spanRule groups blocks, in the order a scan reads them, into the reads
// the span rule makes: a block joins the read before it when both lie in
// one file, fewer than readGap bytes separate it from the previous block,
// and the read stays within readSpan. It returns each read's block count
// and how many reads the gap and the cap opened.
func spanRule(blocks []*slot, owner map[*slot]string) (reads []int, gapSplits, capSplits int) {
	var start, end uint64
	for i, s := range blocks {
		lo, hi := s.off, s.off+uint64(s.encLen)
		switch {
		case i == 0 || owner[s] != owner[blocks[i-1]]:
		case lo-end >= readGap:
			gapSplits++
		case hi-start > readSpan:
			capSplits++
		default:
			reads[len(reads)-1]++
			end = hi
			continue
		}
		reads = append(reads, 1)
		start, end = lo, hi
	}
	return reads, gapSplits, capSplits
}

// zoneQuery draws a query whose window edges sit on, or next to, block
// edges: picked from the slots' own tMin/tMax ±1, with To == 0 (unbounded)
// and From > To (empty) among the draws.
func zoneQuery(rng *rand.Rand, r *Reader) Query {
	var edges []sim.Time
	for _, f := range r.files {
		for _, s := range f.slots {
			edges = append(edges, s.tMin, s.tMax)
		}
	}
	edge := func() sim.Time {
		if len(edges) == 0 || rng.Intn(8) == 0 {
			return 0
		}
		return edges[rng.Intn(len(edges))] + sim.Time(rng.Intn(3)-1)
	}
	q := Query{
		Experiment: []string{"", "", "alpha", "beta", "gamma"}[rng.Intn(5)],
		Name:       []string{"", "acr", "queue", "nope"}[rng.Intn(4)],
		Component:  []string{"", "link[0]", "src[a]"}[rng.Intn(3)],
		Sweep:      AnySweep,
		From:       edge(),
		To:         edge(),
	}
	if rng.Intn(2) == 0 {
		q.Sweep = rng.Intn(20)
	}
	if rng.Intn(4) == 0 { // a one-block window
		q.To = q.From + sim.Time(rng.Intn(20))
	}
	return q
}

// TestZoneSkipIsInvisible: over random campaigns and queries, the scan
// with zone maps and coalesced reads hands the query methods exactly the
// blocks, in exactly the order, that the plain per-block walk does — and
// the decoders, keeping what they return past the callback, make the same
// rows of them — and reports the same ScanStats and the same error. Some
// campaigns are damaged: a corrupt block inside a span, or a file
// truncated after Open. FilesSkipped, which the walk does not have, may
// only name files the walk found nothing in, and a clean scan makes
// exactly the reads the span rule says: every read fills the span from the
// block it was made for, so a block opens a read exactly when the span's
// start, or its file, differs from its predecessor's.
func TestZoneSkipIsInvisible(t *testing.T) {
	var queries, filesSkipped, nonEmptySkipped int
	var gapSplits, capSplits, oversize, crcInSpan, shortReads int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		zoneCampaign(t, rng, dir)
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		owner := map[*slot]string{} // the file whose index holds the slot
		for _, f := range r.files {
			for i := range f.slots {
				owner[&f.slots[i]] = f.path
			}
		}
		var corrupt *slot
		truncated := seed%4 == 2
		switch {
		case seed%4 == 1:
			corrupt = corruptBlock(t, rng, r)
		case truncated:
			truncateFile(t, rng, r)
		}
		damaged := corrupt != nil || truncated
		for k := 0; k < 60; k++ {
			q := zoneQuery(rng, r)
			for kind := KindSeries; kind <= KindSummary; kind++ {
				var want, got []*slot
				var wantRows, gotRows []any
				wantStats, wantErr := refScan(r, kind, q, func(s *slot, raw []byte) error {
					want = append(want, s)
					wantRows = append(wantRows, decodeBlock(s, raw))
					return nil
				})
				r.ResetStats()
				sc := newScanner(r, kind, q)
				var reads int
				var spanStart uint64
				gotErr := sc.run(func(s *slot, raw []byte) error {
					if len(got) == 0 || owner[s] != owner[got[len(got)-1]] || sc.start != spanStart {
						reads++
					}
					spanStart = sc.start
					got = append(got, s)
					gotRows = append(gotRows, decodeBlock(s, raw))
					return nil
				})
				sc.release()
				gotStats := r.Stats()
				ctx := fmt.Sprintf("seed %d, %v query %+v", seed, kind, q)
				if !damaged && (wantErr != nil || gotErr != nil) {
					t.Fatalf("%s: an undamaged campaign fails: scan %v, slot walk %v", ctx, gotErr, wantErr)
				}
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: scan error %v, slot walk %v", ctx, gotErr, wantErr)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: scan handed over %d blocks, the slot walk %d, or in another order", ctx, len(got), len(want))
				}
				if !reflect.DeepEqual(gotRows, wantRows) {
					t.Fatalf("%s: the scan's blocks decode to other rows than the slot walk's", ctx)
				}
				wantStats.Files, wantStats.FilesSkipped = gotStats.Files, gotStats.FilesSkipped
				if gotStats != wantStats {
					t.Fatalf("%s: stats %+v, slot walk %+v", ctx, gotStats, wantStats)
				}
				queries++
				if wantErr != nil {
					if strings.Contains(wantErr.Error(), "CRC mismatch") {
						if reads, _, _ := spanRule(append(slices.Clip(want), corrupt), owner); reads[len(reads)-1] > 1 {
							crcInSpan++
						}
					}
					if strings.Contains(wantErr.Error(), "read: EOF") {
						shortReads++
					}
					continue
				}
				matched := map[string]bool{}
				for _, s := range want {
					matched[owner[s]] = true
				}
				if emptyFiles := len(r.files) - len(matched); gotStats.FilesSkipped > emptyFiles {
					t.Fatalf("%s: %d files skipped, but only %d hold no matching block", ctx, gotStats.FilesSkipped, emptyFiles)
				}
				filesSkipped += gotStats.FilesSkipped
				nonEmptySkipped += gotStats.FilesSkipped
				for _, f := range r.files {
					if f.zones[kind].n == 0 {
						nonEmptySkipped--
					}
				}
				ruleReads, gaps, caps := spanRule(want, owner)
				if reads != len(ruleReads) {
					t.Fatalf("%s: %d reads for %d blocks, the span rule makes %d", ctx, reads, len(want), len(ruleReads))
				}
				gapSplits += gaps
				capSplits += caps
				for _, s := range want {
					if s.encLen > readSpan {
						oversize++
					}
				}
			}
		}
	}
	// The draws must actually exercise the skip, on files that hold blocks
	// of the kind, and every way a read can split or fail, or the
	// comparisons above prove nothing.
	t.Logf("%d scans skipped %d files, %d of them holding the kind", queries, filesSkipped, nonEmptySkipped)
	t.Logf("reads split %d times at the gap and %d at the cap; %d blocks over the cap; %d CRC failures inside a span, %d short reads",
		gapSplits, capSplits, oversize, crcInSpan, shortReads)
	if filesSkipped == 0 || nonEmptySkipped < queries/10 {
		t.Fatalf("%d scans skipped %d files (%d holding the kind): the draws do not exercise zones", queries, filesSkipped, nonEmptySkipped)
	}
	if gapSplits == 0 || capSplits == 0 || oversize == 0 || crcInSpan == 0 || shortReads == 0 {
		t.Fatal("the draws do not exercise every way a read splits or fails")
	}
}

// TestScanAllocsPerBlock: a full summary scan of a 2 000-run campaign
// shaped like the benchmark's synthetic one allocates at most 1.1 times
// per scanned block — the value column the decoder keeps (the experiment
// label and the name column repeat, so they are shared), and nothing per
// read.
func TestScanAllocsPerBlock(t *testing.T) {
	const runs = 2000
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]metrics.Point, 64)
	for i := 0; i < runs; i++ {
		seg := w.NewSegment(RunMeta{Experiment: "sweep/acr", Sweep: i, End: sim.Time(1000*i + 63)})
		for p := range pts {
			pts[p] = metrics.Point{T: sim.Time(1000*i + p), V: float64(i) + float64(p)/64}
		}
		seg.AddSeries("acr", pts)
		seg.AddSummary(map[string]float64{"goodput": float64(i), "jain_normalized": 0.99})
		seg.AddCounters(map[string]uint64{"link.cells_in": uint64(i * 64), "link.cells_out": uint64(i * 63)})
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
	var scanErr error
	allocs := testing.AllocsPerRun(5, func() {
		scanErr = r.Summaries(Query{Sweep: AnySweep}, func(RunSummary) error { return nil })
	})
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	perBlock := allocs / runs
	t.Logf("%.0f allocations per scan, %.2f per scanned block", allocs, perBlock)
	if perBlock > 1.1 {
		t.Fatalf("a summary scan allocates %.2f times per scanned block, budget 1.1", perBlock)
	}
}

// hostileHeader is a 64-byte file whose sealed header claims 2²⁰ used
// slots: a reader that sizes its index buffer from the header alone
// allocates 64 MB before it finds the file short.
func hostileHeader() []byte {
	b := make([]byte, headerSize)
	copy(b, Magic)
	binary.LittleEndian.PutUint32(b[4:], Version)
	binary.LittleEndian.PutUint32(b[8:], 1<<20)
	binary.LittleEndian.PutUint32(b[12:], 1<<20)
	binary.LittleEndian.PutUint32(b[16:], 1)
	return b
}

// sealedFile returns the bytes of a one-file campaign holding one
// testSegment run (every block kind) under comp.
func sealedFile(tb testing.TB, comp Compression) []byte {
	tb.Helper()
	dir := tb.TempDir()
	w, err := Create(dir, Options{Compression: comp, SlotsPerFile: 8})
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.Append(testSegment(w, 5)); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, fileName(0)))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// hostileRows is a valid uncompressed campaign whose first (series) slot
// claims 2²⁶ rows: a reader that sizes the decoded points from the slot
// allocates 1 GB before the payload runs dry. The CRC covers the block,
// not the slot, so the file still checks out.
func hostileRows(tb testing.TB) []byte {
	b := sealedFile(tb, CompressionNone)
	binary.LittleEndian.PutUint32(b[headerSize+4:], 1<<26)
	return b
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOpenRejectsHostileIndex: index fields that would size an allocation
// beyond what the file can back fail at Open, before anything is
// allocated from them.
func TestOpenRejectsHostileIndex(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"used slots past the end", "short index", hostileHeader()},
		{"series rows past the payload", "rows cannot fit", hostileRows(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, fileName(0)), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			var err error
			if n := allocated(func() { _, err = Open(dir) }); n > 1<<20 {
				t.Errorf("Open allocated %d bytes for a %d-byte file", n, len(tc.data))
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open error = %v, want %q", err, tc.want)
			}
		})
	}
}

// resealCRCs rewrites each used slot's CRC over the bytes the slot now
// points at, so a mutated payload gets past the checksum to its decoder.
func resealCRCs(b []byte) {
	if len(b) < headerSize {
		return
	}
	used := uint64(binary.LittleEndian.Uint32(b[12:]))
	for i := uint64(0); i < used && headerSize+(i+1)*slotSize <= uint64(len(b)); i++ {
		sl := b[headerSize+i*slotSize:]
		off, n := binary.LittleEndian.Uint64(sl[48:]), uint64(binary.LittleEndian.Uint32(sl[56:]))
		if off <= uint64(len(b)) && n <= uint64(len(b))-off {
			binary.LittleEndian.PutUint32(sl[28:], crc32.ChecksumIEEE(b[off:off+n]))
		}
	}
}

// Allocation bound for FuzzOpen: a fixed base (the flate decompressor,
// file handles) plus a fixed multiple of the input. The multiple is what a
// valid file may legitimately cost: deflate expands at most 1032×, and no
// decoder allocates more than 128 bytes per raw byte (a trace row costs at
// least 4 raw bytes and decodes to ~310 bytes of columns and event). An
// allocation sized by an index field the file's length does not back —
// 2²⁰ slots or 2²⁶ rows in a file of a few hundred bytes — overshoots it
// by orders of magnitude.
const (
	fuzzAllocBase    = 1 << 20
	fuzzAllocPerByte = maxFlateRatio * 128
)

// FuzzOpen feeds the bytes of a one-file campaign to Open and to all four
// queries: each must return or fail, never panic, and allocate within
// fuzzAllocBase + fuzzAllocPerByte × the input's length.
func FuzzOpen(f *testing.F) {
	for _, comp := range []Compression{CompressionNone, CompressionFlate} {
		f.Add(sealedFile(f, comp))
	}
	f.Add(hostileHeader())
	f.Add(hostileRows(f))
	dir := f.TempDir()
	path := filepath.Join(dir, fileName(0))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...)
		resealCRCs(data)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n := allocated(func() {
			r, err := Open(dir)
			if err != nil {
				return
			}
			q := Query{Sweep: AnySweep}
			_ = r.Series(q, func(SeriesChunk) error { return nil })
			_ = r.Counters(q, func(RunCounters) error { return nil })
			_ = r.Summaries(q, func(RunSummary) error { return nil })
			_ = r.Trace(q, func(TraceChunk) error { return nil })
		})
		if limit := fuzzAllocBase + fuzzAllocPerByte*uint64(len(data)); n > limit {
			t.Fatalf("a %d-byte file made the reader allocate %d bytes (limit %d)", len(data), n, limit)
		}
	})
}
