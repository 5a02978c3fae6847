package cli

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// TestTraceSummarySpansRuns: the store hands events back run by run, so a
// two-run answer is not in time order. The total line spans the earliest
// to the latest event, as the per-group rows do, not first to last.
func TestTraceSummarySpansRuns(t *testing.T) {
	ms := func(n int64) sim.Time { return sim.Time(n * int64(sim.Millisecond)) }
	tr := trace.New(8)
	tr.Emit(ms(1), "S0", "drop")
	tr.Emit(ms(2000), "S0", "drop")
	tr.Emit(ms(1), "S0", "drop")
	tr.Emit(ms(1000), "S0", "drop")
	var b strings.Builder
	printTraceSummary(&b, tr.Events())
	if want := "4 events over 1.999s of simulated time"; !strings.Contains(b.String(), want) {
		t.Fatalf("summary:\n%s\nwant a total line %q", b.String(), want)
	}
}

// TestStoredTraceReemitsRecorder: a quick E02 recorded into a campaign
// store and read back with phantom-trace -store -json is byte for byte
// the JSONL of the recorder the run wrote into.
func TestStoredTraceReemitsRecorder(t *testing.T) {
	def, ok := exp.Get("E02")
	if !ok {
		t.Fatal("E02 not registered")
	}
	dir := t.TempDir()
	sw, err := store.Create(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(TraceRingCap)
	fleet := &runner.Fleet{Workers: 1, Store: sw}
	results, _ := fleet.Run([]runner.Job{{Def: def, Opts: exp.Options{
		Quiet: true, Duration: runner.QuickDuration(def.ID), Trace: tr,
	}}})
	if err := results[0].Err; err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := trace.WriteJSONL(&want, tr.Events()); err != nil {
		t.Fatal(err)
	}

	r, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	q := store.Query{Experiment: def.ID, Sweep: store.AnySweep}
	if err := RunTraceQuery(&got, api.LocalSource{R: r}, TraceQueryOpts{Query: q, JSON: true}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("stored trace re-emits %d bytes, recorder's JSONL is %d (%d events)", got.Len(), want.Len(), tr.Len())
	}
	t.Logf("%d events, %d bytes", tr.Len(), got.Len())
}
