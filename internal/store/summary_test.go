package store

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// decodeSummaryMap is the summary map decoder the columns replaced, kept
// as the oracle: it reads any name order and lets a duplicated name
// collapse.
func decodeSummaryMap(raw []byte, rows int) (exp string, summary map[string]float64, err error) {
	c := &cursor{b: raw}
	exp = c.str()
	names := make([]string, rows)
	for i := range names {
		names[i] = c.str()
	}
	summary = make(map[string]float64, rows)
	var fd floatDecoder
	for _, n := range names {
		summary[n] = fd.next(c)
	}
	return exp, summary, c.err
}

// summaryBlock lays out a summary block in the given name order, sorted
// or not, duplicates and all.
func summaryBlock(exp string, names []string, values ...float64) []byte {
	b := appendStr(nil, exp)
	for _, n := range names {
		b = appendStr(b, n)
	}
	var fe floatEncoder
	for _, v := range values {
		b = fe.append(b, v)
	}
	return b
}

// TestSummaryBlockRejectsHostile: a duplicated name, an unsorted name
// column and a truncated value column are each a corrupt payload, where
// the map decoder kept the first two silently.
func TestSummaryBlockRejectsHostile(t *testing.T) {
	good := summaryBlock("E01", []string{"goodput", "util"}, 1.5, 0.25)
	for name, raw := range map[string][]byte{
		"duplicated": summaryBlock("E01", []string{"goodput", "goodput"}, 1.5, 0.25),
		"unsorted":   summaryBlock("E01", []string{"util", "goodput"}, 1.5, 0.25),
		"truncated":  good[:len(good)-1],
	} {
		if _, err := decodeColumnsBlock(raw, 2, RunSummary{}); err == nil || !strings.Contains(err.Error(), "store: corrupt block payload") {
			t.Errorf("%s block: err = %v, want a corrupt payload", name, err)
		}
	}
	rs, err := decodeColumnsBlock(good, 2, RunSummary{})
	if err != nil || !slices.Equal(rs.Names, []string{"goodput", "util"}) || !slices.Equal(rs.Values, []float64{1.5, 0.25}) {
		t.Fatalf("good block = %+v, %v", rs, err)
	}
}

// countersBlock lays out a counters block in the given name order, sorted
// or not, duplicates and all.
func countersBlock(exp string, names []string, values ...uint64) []byte {
	b := appendStr(nil, exp)
	for _, n := range names {
		b = appendStr(b, n)
	}
	for _, v := range values {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// decodeCountersMap is the counters map decoder the columns replaced, kept
// as the oracle: names strictly increasing, values into a map.
func decodeCountersMap(raw []byte, rows int) (exp string, snap map[string]uint64, err error) {
	c := &cursor{b: raw}
	exp = c.str()
	names := make([]string, rows)
	for i := range names {
		names[i] = c.str()
		if i > 0 && names[i] <= names[i-1] {
			c.fail("counter names not strictly increasing")
		}
	}
	snap = make(map[string]uint64, rows)
	for _, n := range names {
		snap[n] = c.uvarint()
	}
	return exp, snap, c.err
}

// TestCountersBlockRejectsHostile: a repeated name, an unsorted name column
// and a truncated value column are each a corrupt payload, as they are in a
// summary block; the map decoder used to fold a repeated name into one key.
func TestCountersBlockRejectsHostile(t *testing.T) {
	good := countersBlock("E01", []string{"link.cells_in", "link.cells_out"}, 17, 18)
	for name, raw := range map[string][]byte{
		"repeated":  countersBlock("E01", []string{"link.cells_out", "link.cells_out"}, 17, 18),
		"unsorted":  countersBlock("E01", []string{"link.cells_out", "link.cells_in"}, 17, 18),
		"truncated": good[:len(good)-1],
	} {
		if _, err := decodeColumnsBlock(raw, 2, RunCounters{}); err == nil || !strings.Contains(err.Error(), "store: corrupt block payload") {
			t.Errorf("%s block: err = %v, want a corrupt payload", name, err)
		}
	}
	rc, err := decodeColumnsBlock(good, 2, RunCounters{})
	if err != nil || rc.Experiment != "E01" || !maps.Equal(rc.Map(), map[string]uint64{"link.cells_in": 17, "link.cells_out": 18}) {
		t.Fatalf("good block = %+v, %v", rc, err)
	}
}

// FuzzSummaryBlock feeds arbitrary bytes and row counts to the column
// decoder of either kind — kind byte even: summary (XOR floats), odd:
// counters (uvarints) — after a previous row decoded from other arbitrary
// bytes. The decoder must fail, or return strictly increasing names whose
// (name, value bits) pairs are the kind's map decoder's; it may refuse
// only a block whose names are out of order or repeated; and the previous
// row's names must not change.
func FuzzSummaryBlock(f *testing.F) {
	ab := []string{"goodput", "util"}
	f.Add(byte(0), summaryBlock("E01", ab, 1.5, 0.25), uint16(2), summaryBlock("E01", ab, 3, -1), uint16(2))
	f.Add(byte(0), summaryBlock("E01", ab, 1.5, 0.25), uint16(2), summaryBlock("E02", []string{"goodput", "x"}, 3, 4), uint16(2))
	f.Add(byte(0), summaryBlock("E01", []string{"b", "a"}, 1, 2), uint16(2), []byte{}, uint16(0))
	f.Add(byte(0), summaryBlock("E01", []string{"a", "a"}, 1, 2), uint16(2), summaryBlock("E01", []string{"a"}, 1), uint16(1))
	f.Add(byte(0), summaryBlock("<&>", []string{"", "\xff", "\xff\x00"}, math.NaN(), math.Inf(-1), 0), uint16(3), []byte{0}, uint16(0))
	f.Add(byte(1), countersBlock("E01", ab, 17, 1<<63), uint16(2), countersBlock("E01", ab, 0, 1), uint16(2))
	f.Add(byte(1), countersBlock("E01", ab, 17, 18), uint16(2), countersBlock("E02", []string{"goodput", "x"}, 3, 4), uint16(2))
	f.Add(byte(1), countersBlock("E01", []string{"b", "a"}, 1, 2), uint16(2), []byte{}, uint16(0))
	f.Add(byte(1), countersBlock("E01", []string{"a", "a"}, 1, 2), uint16(2), countersBlock("E01", []string{"a"}, 1), uint16(1))
	f.Fuzz(func(t *testing.T, kind byte, raw []byte, rows uint16, prevRaw []byte, prevRows uint16) {
		// Open bounds a slot's rows the same way (checkSlot).
		if 2*int(rows) > len(raw) || 2*int(prevRows) > len(prevRaw) {
			return
		}
		if kind%2 == 0 {
			checkColumns(t, decodeSummaryMap, math.Float64bits, raw, int(rows), prevRaw, int(prevRows))
		} else {
			checkColumns(t, decodeCountersMap, func(v uint64) uint64 { return v }, raw, int(rows), prevRaw, int(prevRows))
		}
	})
}

// checkColumns holds one fuzz input's column decoding to the kind's map
// decoder ref, comparing values by their bits.
func checkColumns[V scalar](t *testing.T, ref func([]byte, int) (string, map[string]V, error), bits func(V) uint64, raw []byte, rows int, prevRaw []byte, prevRows int) {
	prev, err := decodeColumnsBlock(prevRaw, prevRows, Columns[V]{})
	if err != nil {
		prev = Columns[V]{}
	}
	handed := slices.Clone(prev.Names)
	rc, err := decodeColumnsBlock(raw, rows, prev)
	if !slices.Equal(prev.Names, handed) {
		t.Fatalf("decoding changed the previous row's names: %q, was %q", prev.Names, handed)
	}
	exp, want, wantErr := ref(raw, rows)
	if err != nil {
		if wantErr == nil {
			c := &cursor{b: raw}
			c.str()
			names := make([]string, rows)
			for i := range names {
				names[i] = c.str()
			}
			if slices.IsSorted(names) && len(slices.Compact(names)) == len(names) {
				t.Fatalf("refused a well-formed block: %v", err)
			}
		}
		return
	}
	if wantErr != nil {
		t.Fatalf("accepted a block the map decoder refuses: %v", wantErr)
	}
	if rc.Experiment != exp || len(rc.Names) != rows || len(rc.Values) != rows || len(want) != rows {
		t.Fatalf("%q: %d names, %d values; map decoder %q, %d names", rc.Experiment, len(rc.Names), len(rc.Values), exp, len(want))
	}
	for i, name := range rc.Names {
		if i > 0 && rc.Names[i-1] >= name {
			t.Fatalf("names %q not strictly increasing", rc.Names)
		}
		if v, ok := want[name]; !ok || bits(v) != bits(rc.Values[i]) {
			t.Fatalf("%q = %v, map decoder %v (present %v)", name, rc.Values[i], v, ok)
		}
	}
}

// TestSummaryScanAllocsPerRow: a full scan of a 1 000-run sweep allocates
// at most 1.1 times per row, for summaries and for counters alike — each
// row's value column, with the experiment label and the name column shared
// while they repeat. The name set changes every 125 runs, so sharing must
// also survive a change. A map, or name strings per row, would cost more
// than one allocation each.
func TestSummaryScanAllocsPerRow(t *testing.T) {
	const runs = 1000
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		seg := w.NewSegment(RunMeta{Experiment: "E01", Sweep: i, End: sim.Time(1000 * i)})
		seg.AddSummary(map[string]float64{
			"goodput":                  float64(i),
			"jain":                     0.99,
			fmt.Sprint("util_", i/125): 0.5,
			"peak_queue":               float64(i % 7),
			"tail_goodput.flow0":       1.25,
		})
		seg.AddCounters(map[string]uint64{
			"atm.rm_cells":              uint64(i),
			"link.cells_in":             64,
			"link.queue_peak":           uint64(i % 7),
			"sim.events_fired":          1 << 40,
			fmt.Sprint("trunk_", i/125): 1,
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
	// Each kind's fifth name is the one that changes.
	for _, tc := range []struct {
		kind   string
		prefix string
		scan   func(fn func(names []string) error) error
	}{
		{"summaries", "util_", func(fn func([]string) error) error {
			return r.Summaries(Query{Sweep: AnySweep}, func(rs RunSummary) error { return fn(rs.Names) })
		}},
		{"counters", "trunk_", func(fn func([]string) error) error {
			return r.Counters(Query{Sweep: AnySweep}, func(rc RunCounters) error { return fn(rc.Names) })
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			var rows, changes int
			var last []string
			scanErr := tc.scan(func(names []string) error {
				if rows > 0 && &names[0] != &last[0] {
					changes++
				}
				if names[4] != fmt.Sprint(tc.prefix, rows/125) {
					return fmt.Errorf("run %d: names %q", rows, names)
				}
				rows, last = rows+1, names
				return nil
			})
			if scanErr != nil || rows != runs || changes != runs/125-1 {
				t.Fatalf("%d rows, %d name columns after the first, err %v", rows, changes, scanErr)
			}
			allocs := testing.AllocsPerRun(5, func() {
				scanErr = tc.scan(func([]string) error { return nil })
			})
			if scanErr != nil {
				t.Fatal(scanErr)
			}
			t.Logf("%.0f allocations per scan, %.3f per row", allocs, allocs/runs)
			if allocs/runs > 1.1 {
				t.Fatalf("a %s scan allocates %.3f times per row, budget 1.1", tc.kind, allocs/runs)
			}
		})
	}
}
