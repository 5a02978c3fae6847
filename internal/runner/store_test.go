package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// runFleetStore runs every registered experiment through a fleet with the
// full observability stack (telemetry registries, flight recorders) and,
// when dir is non-empty, the campaign store attached. Runs are recorded on
// the workers' resident recorders, or — with fresh set — each on a recorder
// of its own, made for it and never reused.
func runFleetStore(t *testing.T, workers int, dir string, fresh bool) []Result {
	t.Helper()
	const ringCap = 1 << 10
	defs := registered()
	jobs := make([]Job, len(defs))
	for i, d := range defs {
		jobs[i] = Job{Def: d, Opts: exp.Options{
			Quiet:    true,
			Duration: shortDuration(d.ID),
		}}
		switch {
		case dir == "":
		case fresh:
			jobs[i].Opts.Trace = trace.New(ringCap)
		default:
			jobs[i].TraceCap = ringCap
		}
	}
	fleet := &Fleet{Workers: workers, Telemetry: true}
	if dir != "" {
		sw, err := store.Create(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fleet.Store = sw
	}
	results, stats := fleet.Run(jobs)
	if stats.Failed != 0 {
		for _, r := range results {
			if r.Err != nil {
				t.Errorf("%s failed: %v", r.Job.Label(), r.Err)
			}
		}
		t.FailNow()
	}
	if fleet.Store != nil {
		if err := fleet.Store.Close(); err != nil {
			t.Fatalf("store close: %v", err)
		}
	}
	return results
}

// TestStoreObservationFree extends the observation-freeness contract to
// the results store: a fleet persisting every run (summaries, counters,
// traces) produces summaries bit-identical to a store-less fleet, and the
// persisted summaries read back bit-identical to the in-memory results.
func TestStoreObservationFree(t *testing.T) {
	defs := registered()
	if len(defs) == 0 {
		t.Fatal("registry is empty")
	}
	// The heap is the engine's one calendar; the subtest keeps its name.
	t.Run("heap", func(t *testing.T) {
		off := runFleetStore(t, 4, "", false)
		dir := t.TempDir()
		on := runFleetStore(t, 4, dir, false)
		for i := range defs {
			summariesIdentical(t, defs[i].ID+" store on-vs-off", on[i].Res.Summary, off[i].Res.Summary)
		}

		rd, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var persisted []store.RunSummary
		if err := rd.Summaries(store.Query{Sweep: store.AnySweep}, func(s store.RunSummary) error {
			persisted = append(persisted, s)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(persisted) != len(defs) {
			t.Fatalf("store holds %d run summaries, want %d", len(persisted), len(defs))
		}
		for i := range defs {
			if persisted[i].Experiment != defs[i].ID {
				t.Fatalf("store run %d is %q, want %q — run order lost", i, persisted[i].Experiment, defs[i].ID)
			}
			stored := make(map[string]float64, len(persisted[i].Names))
			for j, name := range persisted[i].Names {
				stored[name] = persisted[i].Values[j]
			}
			summariesIdentical(t, defs[i].ID+" store read-back", stored, on[i].Res.Summary)
		}
		// Counters persisted too (telemetry was on), and every run that carried
		// a tracer stored events.
		nCounters := 0
		if err := rd.Counters(store.Query{Sweep: store.AnySweep}, func(c store.RunCounters) error {
			nCounters++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if nCounters != len(defs) {
			t.Fatalf("store holds %d counter snapshots, want %d", nCounters, len(defs))
		}
	})
}

// readCampaign loads every file of a campaign directory.
func readCampaign(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// campaignsIdentical fails unless two campaign directories hold the same
// files with the same bytes.
func campaignsIdentical(t *testing.T, label string, a, b map[string][]byte) {
	t.Helper()
	if len(a) == 0 {
		t.Fatalf("%s: no campaign files", label)
	}
	if len(a) != len(b) {
		t.Fatalf("%s: file counts differ: %d vs %d", label, len(a), len(b))
	}
	for name, bytes := range a {
		if !reflect.DeepEqual(bytes, b[name]) {
			t.Fatalf("%s: %s differs", label, name)
		}
	}
}

// TestStoreWorkerCountByteIdentical pins the campaign determinism
// contract end to end: the same recorded jobs through fleets of 1, 2 and 8
// workers — so one, two and eight resident recorders, each reused for
// whichever jobs its worker happens to pick up — leave byte-identical
// campaign directories, and they are the bytes a campaign gets when every
// job records on a fresh ring of its own.
func TestStoreWorkerCountByteIdentical(t *testing.T) {
	dirFresh := t.TempDir()
	runFleetStore(t, 4, dirFresh, true)
	want := readCampaign(t, dirFresh)
	for _, workers := range []int{1, 2, 8} {
		dir := t.TempDir()
		runFleetStore(t, workers, dir, false)
		campaignsIdentical(t, fmt.Sprintf("%d workers vs fresh recorders", workers), want, readCampaign(t, dir))
	}
}

// TestRecorderReuseIsolation: one worker, so one ring; a job that wraps it
// three times over is followed by a job that emits a handful. The campaign
// is the one fresh recorders produce, each job's stored trace holds its
// own newest events only, and when the fleet is done nothing — no Job, no
// Result — still points at the ring.
func TestRecorderReuseIsolation(t *testing.T) {
	const ringCap = 64
	emitter := func(id string, n int) exp.Definition {
		return fakeDef(id, func(o exp.Options) (*exp.Result, error) {
			for i := 0; i < n; i++ {
				o.Trace.Emit(sim.Time(i), id, "tick", trace.I("i", int64(i)), trace.S("who", id))
			}
			return &exp.Result{ID: id, Summary: map[string]float64{"n": float64(n)}}, nil
		})
	}
	build := func(fresh bool) []Job {
		jobs := []Job{{Def: emitter("flood", 3*ringCap+7)}, {Def: emitter("trickle", 5)}, {Def: okDef("silent", 1)}}
		for i := range jobs[:2] {
			if fresh {
				jobs[i].Opts.Trace = trace.New(ringCap)
			} else {
				jobs[i].TraceCap = ringCap
			}
		}
		return jobs
	}
	run := func(jobs []Job) (string, []Result) {
		dir := t.TempDir()
		sw, err := store.Create(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fleet := &Fleet{Workers: 1, Store: sw}
		results, stats := fleet.Run(jobs)
		if stats.Failed != 0 {
			t.Fatalf("%d jobs failed", stats.Failed)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, results
	}

	jobs := build(false)
	dirReused, results := run(jobs)
	dirFresh, _ := run(build(true))
	campaignsIdentical(t, "reused vs fresh recorders", readCampaign(t, dirFresh), readCampaign(t, dirReused))

	r, err := store.Open(dirReused)
	if err != nil {
		t.Fatal(err)
	}
	stored := map[string][]trace.Event{}
	if err := r.Trace(store.Query{Sweep: store.AnySweep}, func(c store.TraceChunk) error {
		stored[c.Experiment] = append(stored[c.Experiment], c.Events...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		id         string
		n, emitted int
	}{{"flood", ringCap, 3*ringCap + 7}, {"trickle", 5, 5}} {
		evs := stored[c.id]
		if len(evs) != c.n {
			t.Fatalf("%s: %d events stored, want %d", c.id, len(evs), c.n)
		}
		for i, e := range evs {
			if want := sim.Time(c.emitted - c.n + i); e.Component != c.id || e.T != want {
				t.Errorf("%s event %d is %v, want %s's at %v", c.id, i, e, c.id, want)
			}
		}
	}
	if len(stored) != 2 {
		t.Errorf("trace blocks stored for %d experiments, want the 2 recorded ones", len(stored))
	}
	for i := range jobs {
		if jobs[i].Opts.Trace != nil || results[i].Job.Opts.Trace != nil {
			t.Errorf("job %d still aliases the worker's recorder after the fleet drained", i)
		}
	}
}

// TestRecorderLendsOneRing: a worker's recorder lends the same ring, empty,
// to every job that asks for its capacity; a new capacity gets a new ring,
// an unrecorded job gets none, and a job's own Opts.Trace is left alone.
func TestRecorderLendsOneRing(t *testing.T) {
	var rec recorder
	first := rec.lend(&Job{TraceCap: 64})
	first.Emit(1, "flood", "tick")
	if again := rec.lend(&Job{TraceCap: 64}); again != first || again.Len() != 0 || again.Seen() != 0 {
		t.Errorf("second lend: same ring %v, %d retained of %d seen; want the same ring, empty",
			again == first, again.Len(), again.Seen())
	}
	if tr := rec.lend(&Job{}); tr != nil {
		t.Error("a job without TraceCap was lent a recorder")
	}
	own := trace.New(8)
	if tr := rec.lend(&Job{TraceCap: 64, Opts: exp.Options{Trace: own}}); tr != own {
		t.Error("a job's own Opts.Trace was replaced by the worker's ring")
	}
	if bigger := rec.lend(&Job{TraceCap: 128}); bigger == first || bigger.Cap() != 128 {
		t.Errorf("capacity change: cap %d, same ring %v; want a new ring of 128", bigger.Cap(), bigger == first)
	}
}
