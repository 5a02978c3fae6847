package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
)

// checkRowJSON holds AppendSummaryRow to json.Encoder.Encode over the
// SummaryRow whose map holds the same columns, in every shape the writer
// branches on (no, one and many names) around one string s, one float f
// and one integer n: the same bytes, or an error with the same text where
// encoding/json refuses the row.
func checkRowJSON(t *testing.T, s string, f float64, n int64) {
	t.Helper()
	many := map[string]float64{}
	for i := 0; i < 12; i++ {
		many[fmt.Sprint(s, 11-i)] = f * float64(i)
	}
	for _, m := range []map[string]float64{nil, {}, {s: f}, {"b": 1, s: f, "a": -f, "A" + s: 0}, many} {
		rs := store.RunSummary{Experiment: s, Sweep: int(n), At: sim.Time(n)}
		for name := range m {
			rs.Names = append(rs.Names, name)
		}
		slices.Sort(rs.Names)
		r := &SummaryRow{Experiment: s, Sweep: int(n), AtNS: n, Summary: map[string]float64{}}
		for _, name := range rs.Names {
			rs.Values = append(rs.Values, m[name])
			r.Summary[name] = m[name]
		}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(r)
		got, gotErr := AppendSummaryRow([]byte("prefix"), rs)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%+v: error %v, encoding/json %v", r, gotErr, wantErr)
		}
		if !bytes.HasPrefix(got, []byte("prefix")) {
			t.Fatalf("%+v: the writer dropped what it was appending to", r)
		}
		if wantErr == nil && !bytes.Equal(got[len("prefix"):], want.Bytes()) {
			t.Fatalf("%+v:\n got %q\nwant %q", r, got[len("prefix"):], want.Bytes())
		}
	}
}

// TestRowJSONMatchesEncoder: the hand-written summary row is byte-identical
// to encoding/json's over the strings and floats it treats specially.
func TestRowJSONMatchesEncoder(t *testing.T) {
	strs := []string{
		"", "goodput", "synth/acr", "link.cells_in",
		"<script>alert(1)</script> & co", `say "hi" \ bye`,
		"\x00\x01\x07\x1f \b\f\n\r\t\x7f",
		"bad \xff\xfe utf-8 \xc3", "line\u2028para\u2029end",
		"débit · 日本語 · 🙂",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 123456789.125, 1e20, -2.5e-3,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1.234e-9, 1e-300,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1.5e300,
		math.SmallestNonzeroFloat64, 2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, s := range strs {
		for _, f := range floats {
			for _, n := range []int64{0, -1, 42, math.MinInt64, math.MaxInt64} {
				checkRowJSON(t, s, f, n)
			}
		}
	}
}

// FuzzRowJSON drives the comparison of TestRowJSONMatchesEncoder from
// fuzzed string bytes, float bits and integers.
func FuzzRowJSON(f *testing.F) {
	f.Add("goodput", math.Float64bits(0.5), int64(7))
	f.Add("<&>\"\\\x00\xff\u2028", math.Float64bits(1e-7), int64(-1))
	f.Add("日本", math.Float64bits(math.NaN()), int64(0))
	f.Add("", math.Float64bits(1e21), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, s string, bits uint64, n int64) {
		checkRowJSON(t, s, math.Float64frombits(bits), n)
	})
}

// TestRowJSONStaysOnTheStack: writing a summary row into a buffer with
// room allocates nothing — the reason the writer exists.
func TestRowJSONStaysOnTheStack(t *testing.T) {
	rs := store.RunSummary{Experiment: "sweep/acr", Sweep: 12, At: 12063, Names: []string{"goodput", "jain_normalized"}, Values: []float64{12, 0.99}}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendSummaryRow(buf[:0], rs) }); n != 0 {
		t.Fatalf("AppendSummaryRow allocates %v times per row", n)
	}
	if got := string(buf); got != `{"experiment":"sweep/acr","sweep":12,"at_ns":12063,"summary":{"goodput":12,"jain_normalized":0.99}}`+"\n" {
		t.Fatalf("row = %s", strconv.Quote(got))
	}
}

// TestQueryStatsWireForm pins the Phantom-Scan-Stats trailer's JSON to
// literal bytes: field names and order, jobs and files_in_progress left
// out at zero on a single-job scan, both present on a cross-job one. The
// daemon tests build their reference trailers from this same type, so
// only literals tie its wire form down.
func TestQueryStatsWireForm(t *testing.T) {
	for _, tc := range []struct {
		stats QueryStats
		want  string
	}{
		{
			QueryStats{ScanStats: store.ScanStats{Files: 3, FilesSkipped: 1, Blocks: 40, BlocksScanned: 12, BlocksSkipped: 28, BytesRead: 4096}},
			`{"files":3,"files_skipped":1,"blocks":40,"blocks_scanned":12,"blocks_skipped":28,"bytes_read":4096}`,
		},
		{
			QueryStats{Jobs: 2, ScanStats: store.ScanStats{Files: 5, FilesInProgress: 1, Blocks: 70, BlocksScanned: 70, BytesRead: 1 << 33}},
			`{"jobs":2,"files":5,"files_in_progress":1,"files_skipped":0,"blocks":70,"blocks_scanned":70,"blocks_skipped":0,"bytes_read":8589934592}`,
		},
	} {
		got, err := json.Marshal(tc.stats)
		if err != nil || string(got) != tc.want {
			t.Errorf("json.Marshal(%+v) = %s, %v; want %s", tc.stats, got, err, tc.want)
		}
	}
}
