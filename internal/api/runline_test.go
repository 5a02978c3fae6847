package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
)

// e01Line is a run line as the daemon streams it for a 1 ms E01 run with
// telemetry, cut down to a few keys per map.
const e01Line = `{"run":{"id":"E01#1","sweep":1,"seed":11684592023643177595,"wall_ms":0.119024,"sim_nanos":1000000,` +
	`"summary":{"acr_final_0":20047.169811320753,"conv_ms_acr0":-1,"jain_tail":1,"util_trunk0":0.11306666666666668},` +
	`"counters":{"alg.fair_share_updates":3,"engine.events_fired":286,"link.cells_sent":120},` +
	`"notes":["paper: both sessions converge to the same rate ≈u·C/(1+2u)","measured: Jain 1.000"]}}`

// checkDecode holds the fast decoder to json.Unmarshal on one line: when
// the decoder accepts the line, json.Unmarshal must decode it to a run
// line with exactly the same RunResult.
func checkDecode(t *testing.T, d *runDecoder, line []byte) (accepted bool) {
	t.Helper()
	var got RunResult
	if !d.decode(line, &got) {
		return false
	}
	var want ResultLine
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("the fast decoder accepts %q, json.Unmarshal: %v", line, err)
	}
	if want.Run == nil || want.Report != nil || !reflect.DeepEqual(got, *want.Run) {
		t.Fatalf("%q:\nfast decoder %#v\njson.Unmarshal %#v", line, got, want)
	}
	return true
}

// checkRunLine holds AppendRunLine to json.Encoder.Encode over
// ResultLine{Run: r}: the same bytes, or an error with the same text where
// encoding/json refuses the line. The fast decoder must accept every line
// the writer emits without an escape, and decode it as json.Unmarshal does.
func checkRunLine(t *testing.T, w *RunLineWriter, d *runDecoder, r *RunResult) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(ResultLine{Run: r})
	got, gotErr := w.AppendRunLine([]byte("prefix"), r)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%+v: error %v, encoding/json %v", r, gotErr, wantErr)
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || wantErr != nil && len(got) != len("prefix") {
		t.Fatalf("%+v: the writer did not keep what it was appending to: %q", r, got)
	}
	if wantErr != nil {
		return
	}
	line := got[len("prefix"):]
	if !bytes.Equal(line, want.Bytes()) {
		t.Fatalf("%+v:\n got %q\nwant %q", r, line, want.Bytes())
	}
	line = bytes.TrimSuffix(line, []byte("\n"))
	if !checkDecode(t, d, line) && !bytes.ContainsRune(line, '\\') {
		t.Fatalf("the fast decoder refuses the writer's unescaped line %q", line)
	}
}

// fuzzRun builds a RunResult from one string, float and integer, in the
// shape the low bits of shape pick: error fields set or not; maps nil,
// empty, with one key or with many; lists nil, empty or with two entries.
func fuzzRun(s string, f float64, n int64, shape uint8) *RunResult {
	r := &RunResult{ID: s, Sweep: int(n), Seed: uint64(n), WallMS: f, SimNS: n}
	if shape&1 != 0 {
		r.Error, r.Canceled, r.Golden = s, true, s+"g"
	}
	switch shape >> 1 & 3 {
	case 1:
		r.Summary, r.Counters = map[string]float64{}, map[string]uint64{}
	case 2:
		r.Summary, r.Counters = map[string]float64{s: f}, map[string]uint64{s: uint64(n)}
	case 3:
		r.Summary, r.Counters = map[string]float64{}, map[string]uint64{}
		for i := 0; i < 70; i++ { // past the writer's stack key slice
			k := fmt.Sprint(s, 69-i)
			r.Summary[k], r.Counters[k] = f*float64(i), uint64(n)+uint64(i)
		}
	}
	switch shape >> 3 & 3 {
	case 1:
		r.Drifts, r.Notes, r.Violations = []string{}, []string{}, []string{}
	case 2, 3:
		r.Drifts, r.Notes, r.Violations = []string{s, "d"}, []string{"n", s}, []string{s, s}
	}
	return r
}

var (
	hostileStrings = []string{
		"", "E01", "E01#12", "link.cells_in",
		"<script>alert(1)</script> & co", `say "hi" \ bye`,
		"\x00\x01\x07\x1f \b\f\n\r\t\x7f",
		"bad \xff\xfe utf-8 \xc3", "line\u2028para\u2029end", "\uFFFD",
		"débit · 日本語 · 🙂 ≈u·C/(1+2u)",
	}
	hostileFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 123456789.125, 1e20, -2.5e-3,
		1e-6, math.Nextafter(1e-6, 0), 1e-7, 1e-300, 1e21, -1e21, 1.5e300,
		math.SmallestNonzeroFloat64, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
)

// TestRunLineMatchesEncoder: the hand-written run line is byte-identical
// to encoding/json's over the strings, floats, integers and shapes the
// writer and the reader treat specially.
func TestRunLineMatchesEncoder(t *testing.T) {
	var w RunLineWriter
	var d runDecoder
	for _, s := range hostileStrings {
		for _, f := range hostileFloats {
			for _, n := range []int64{0, -1, 42, math.MinInt64, math.MaxInt64} {
				for _, shape := range []uint8{0, 3, 5, 7, 10, 13, 20, 30} {
					checkRunLine(t, &w, &d, fuzzRun(s, f, n, shape))
				}
			}
		}
	}
}

// TestRunLineDecoderRefuses: lines the fast decoder leaves to
// json.Unmarshal. Each is a valid or near-valid line outside the
// canonical form; json.Unmarshal decides what it means.
func TestRunLineDecoderRefuses(t *testing.T) {
	refused := []string{
		`{"report":{"schema_version":3,"kind":"suite","stats":{"runs":0,"failed":0,"workers":0,"wall_ms":0,"work_ms":0,"sim_seconds":0,"mallocs":0,"alloc_bytes":0}}}`,
		`{"run":{"id":"E\u0030","wall_ms":1,"sim_nanos":2}}`,
		`{"run":{"id":"E01","wall_ms":1,"sim_nanos":2,"counters":{"a":1e5}}}`,
		`{"run":{"id":"E01","wall_ms":1,"sim_nanos":2,"counters":{"a":1.0}}}`,
		`{"run":{"id":"E01","wall_ms":1,"sim_nanos":2,"counters":{"a":-1}}}`,
		`{"run":{"id":"E01","wall_ms":1,"sim_nanos":2,"counters":{"b":1,"a":2}}}`,
		`{"run":{"id":"E01","wall_ms":1,"sim_nanos":2,"counters":{"a":1,"a":2}}}`,
		`{"run":{"id":"E01","wall_ms":1,"sim_nanos":2,"summary":{"a":NaN}}}`,
		`{"run":{"id":"E01","wall_ms":1,"sim_nanos":2,"summary":{"a":1e999}}}`,
		`{"run":{"id":"E01","wall_ms":01,"sim_nanos":2}}`,
		`{"run":{"id":"E01","wall_ms":.5,"sim_nanos":2}}`,
		`{"run":{"id":"E01","wall_ms":+1,"sim_nanos":2}}`,
		`{"run":{"id":"E01","wall_ms":1.,"sim_nanos":2}}`,
		`{"run":{"id":"E01","wall_ms":0x1p3,"sim_nanos":2}}`,
		`{"run":{"id":"E01","wall_ms":1_0,"sim_nanos":2}}`,
		`{"run":{"id":"E01","wall_ms":1,"sim_nanos":99999999999999999999}}`,
		`{"run":{"id":"E01","sweep":1e2,"wall_ms":1,"sim_nanos":2}}`,
		"{\"run\":{\"id\":\"bad \xff utf-8\",\"wall_ms\":1,\"sim_nanos\":2}}",
		`{"run":{"id":"E01", "wall_ms":1,"sim_nanos":2}}`,
		`{"run":{"id":null,"wall_ms":1,"sim_nanos":2}}`,
		`{"run":{"id":"E01","wall_ms":1,"sim_nanos":2,"notes":null}}`,
		`{"run":{"id":"E01","wall_ms":1,"sim_nanos":2,"extra":1}}`,
		`{"run":{"ID":"E01","wall_ms":1,"sim_nanos":2}}`,
		`{"run":{"id":"E01","sim_nanos":2,"wall_ms":1}}`,
		`{"run":{"id":"E01","wall_ms":1,"sim_nanos":2,"canceled":false}}`,
		`{"run":{"id":"E01","wall_ms":1,"sim_nanos":2}}x`,
		`{"run":{"id":"E01","wall_ms":1,"sim_nanos":2}`,
	}
	var d runDecoder
	for _, line := range refused {
		if checkDecode(t, &d, []byte(line)) {
			t.Errorf("the fast decoder accepts %s", line)
		}
	}
	for _, line := range []string{e01Line, `{"run":{"id":"","wall_ms":-0,"sim_nanos":-0,"summary":{},"notes":[]}}`} {
		if !checkDecode(t, &d, []byte(line)) {
			t.Errorf("the fast decoder refuses %s", line)
		}
	}
}

// FuzzResultLine holds both fast paths to encoding/json: on arbitrary
// bytes, whatever the decoder accepts (after a canonical line, and again
// with this line's keys in its table) json.Unmarshal decodes to the same
// RunResult; on a RunResult built from the string, float bits, integer
// and shape, a RunLineWriter writes json.Encoder's bytes or its error
// (with no keys kept, with another run's keys of the same count kept, and
// with this run's own keys kept), and the decoder accepts its own
// unescaped output.
func FuzzResultLine(f *testing.F) {
	f.Add([]byte(e01Line), "E01", math.Float64bits(0.5), int64(7), uint8(0x1f))
	f.Add([]byte(`{"run":{"id":"E01","wall_ms":1,"sim_nanos":2,"counters":{"a":1e5}}}`), "<&>\"\\\x00\xff\u2028", math.Float64bits(1e-7), int64(-1), uint8(5))
	f.Add([]byte("{\"run\":{\"id\":\"\xff\",\"wall_ms\":1,\"sim_nanos\":2}}"), "日本", math.Float64bits(math.NaN()), int64(0), uint8(4))
	f.Add([]byte(`{"report":{"schema_version":3}}`), "", math.Float64bits(1e21), int64(math.MaxInt64), uint8(2))
	f.Fuzz(func(t *testing.T, line []byte, s string, bits uint64, n int64, shape uint8) {
		var d runDecoder
		checkDecode(t, &d, []byte(e01Line))
		if checkDecode(t, &d, line) && !checkDecode(t, &d, line) {
			t.Fatalf("the fast decoder accepts %q once, then refuses it", line)
		}
		var w RunLineWriter
		f := math.Float64frombits(bits)
		checkRunLine(t, &w, &d, fuzzRun(s, f, n, shape))
		checkRunLine(t, &w, &d, fuzzRun(s+"x", f, n, shape))
		checkRunLine(t, &w, &d, fuzzRun(s, f, n, shape))
		checkRunLine(t, &w, &d, fuzzRun(s, f, n, shape))
	})
}

// TestRunLineAllocs: decoding the run lines of a 250-run E01 sweep with
// telemetry (the benchmark's ingest job) takes the fast path for every
// line and stays within an allocation budget per line — json.Unmarshal
// makes about 102 — and writing them allocates nothing.
func TestRunLineAllocs(t *testing.T) {
	const runs, budget = 250, 16
	expn, err := Expand(JobSpec{
		Kind:      KindSuite,
		Telemetry: true,
		Suite:     &SuiteSpec{Filter: "^E01$", DurationNS: int64(sim.Millisecond), Sweep: runs},
	}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	results, _ := (&runner.Fleet{Workers: 2, Telemetry: true}).Run(expn.Jobs)
	rrs := make([]RunResult, runs)
	var lines [][]byte
	var w RunLineWriter
	buf := make([]byte, 0, 4096)
	for i, r := range results {
		rrs[i] = expn.Convert(i, r)
		line, err := w.AppendRunLine(nil, &rrs[i])
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, bytes.TrimSuffix(line, []byte("\n")))
	}
	i := 0
	if a := testing.AllocsPerRun(runs, func() {
		buf, _ = w.AppendRunLine(buf[:0], &rrs[i%runs])
		i++
	}); a != 0 {
		t.Errorf("writing a run line allocates %v times", a)
	}

	var d runDecoder
	var rr RunResult
	i = 0
	allocs := testing.AllocsPerRun(runs, func() {
		if !d.decode(lines[i%runs], &rr) {
			t.Fatalf("line %d left the fast path: %s", i%runs, lines[i%runs])
		}
		i++
	})
	t.Logf("%.1f allocations per decoded line (%d summary, %d counter keys)", allocs, len(rr.Summary), len(rr.Counters))
	if allocs > budget {
		t.Errorf("%.1f allocations per decoded line, budget %d", allocs, budget)
	}
}
