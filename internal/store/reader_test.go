package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// refScan is the reader's scan as it was before zone maps: every slot of
// every file is walked and matched on its own. TestZoneSkipIsInvisible
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
// window's edge often sits on a zone's edge.
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
		seg.AddTrace(events)
		if err := w.Append(seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
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
// with zone maps hands the query methods exactly the blocks, in exactly the
// order, that the plain slot walk does — so every row is the same — and
// reports the same ScanStats. FilesSkipped, which the walk does not have,
// may only name files the walk found nothing in.
func TestZoneSkipIsInvisible(t *testing.T) {
	var queries, filesSkipped, nonEmptySkipped int
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
		for k := 0; k < 60; k++ {
			q := zoneQuery(rng, r)
			for kind := KindSeries; kind <= KindSummary; kind++ {
				var want, got []*slot
				wantStats, err := refScan(r, kind, q, func(s *slot, _ []byte) error { want = append(want, s); return nil })
				if err != nil {
					t.Fatal(err)
				}
				r.ResetStats()
				if err := r.scan(kind, q, func(s *slot, _ []byte) error { got = append(got, s); return nil }); err != nil {
					t.Fatal(err)
				}
				gotStats := r.Stats()
				ctx := fmt.Sprintf("seed %d, %v query %+v", seed, kind, q)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: scan handed over %d blocks, the slot walk %d, or in another order", ctx, len(got), len(want))
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
				wantStats.Files, wantStats.FilesSkipped = gotStats.Files, gotStats.FilesSkipped
				if gotStats != wantStats {
					t.Fatalf("%s: stats %+v, slot walk %+v", ctx, gotStats, wantStats)
				}
				queries++
			}
		}
	}
	// The draws must actually exercise the skip, on files that hold blocks
	// of the kind, or the comparison above proves nothing.
	t.Logf("%d scans skipped %d files, %d of them holding the kind", queries, filesSkipped, nonEmptySkipped)
	if filesSkipped == 0 || nonEmptySkipped < queries/10 {
		t.Fatalf("%d scans skipped %d files (%d holding the kind): the draws do not exercise zones", queries, filesSkipped, nonEmptySkipped)
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
