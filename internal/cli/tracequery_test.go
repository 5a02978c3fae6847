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
	printTraceSummary(&b, [][]trace.Event{tr.Events()})
	if want := "4 events over 1.999s of simulated time"; !strings.Contains(b.String(), want) {
		t.Fatalf("summary:\n%s\nwant a total line %q", b.String(), want)
	}
}

// chunkSource answers trace queries with fixed chunks; every other query
// is unused here.
type chunkSource struct {
	api.QuerySource
	chunks []store.TraceChunk
}

func (s chunkSource) Trace(_ store.Query, fn func(store.TraceChunk) error) error {
	for _, c := range s.chunks {
		if err := fn(c); err != nil {
			return err
		}
	}
	return nil
}

// TestTraceSummaryRatePerRun: a sweep of identical runs reads the event
// rate of one run, not the run count times it, and the total line counts
// the runs. The chunks arrive the way the store hands them back: run by
// run, one run's events possibly split over consecutive chunks.
func TestTraceSummaryRatePerRun(t *testing.T) {
	ms := func(n int64) sim.Time { return sim.Time(n * int64(sim.Millisecond)) }
	run := []trace.Event{{T: ms(0), Component: "s1", Kind: "rate"}, {T: ms(500), Component: "s1", Kind: "rate"},
		{T: ms(1000), Component: "s1", Kind: "rate"}}
	summary := func(chunks ...store.TraceChunk) string {
		var b strings.Builder
		if err := RunTraceQuery(&b, chunkSource{chunks: chunks}, TraceQueryOpts{Summary: true}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	one := summary(store.TraceChunk{Experiment: "E01", Events: run})
	three := summary(store.TraceChunk{Experiment: "E01", Sweep: 0, Events: run[:1]},
		store.TraceChunk{Experiment: "E01", Sweep: 0, Events: run[1:]},
		store.TraceChunk{Experiment: "E01", Sweep: 1, Events: run},
		store.TraceChunk{Experiment: "E01", Sweep: 2, Events: run})
	for _, want := range []string{"3.0\n", "3 events over 1s of simulated time in 1 run(s)"} {
		if !strings.Contains(one, want) {
			t.Errorf("one run:\n%s\nwant %q", one, want)
		}
	}
	for _, want := range []string{"9", "3.0\n", "9 events over 3s of simulated time in 3 run(s)"} {
		if !strings.Contains(three, want) {
			t.Errorf("three runs:\n%s\nwant %q", three, want)
		}
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
	if err := RunTraceQuery(&got, api.LocalSource{Reader: r}, TraceQueryOpts{Query: q, JSON: true}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("stored trace re-emits %d bytes, recorder's JSONL is %d (%d events)", got.Len(), want.Len(), tr.Len())
	}
	t.Logf("%d events, %d bytes", tr.Len(), got.Len())
}
