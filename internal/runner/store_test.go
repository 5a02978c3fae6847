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
// three times over is followed by a job that emits a handful. The second
// job's stored trace is the one a fresh recorder produces, its completion
// hook sees its own events only, and when the fleet is done nothing — no
// Job, no Result — still points at the ring.
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
	run := func(jobs []Job, onTrace func(int, *Job, *trace.Tracer)) (string, []Result) {
		dir := t.TempDir()
		sw, err := store.Create(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fleet := &Fleet{Workers: 1, Store: sw, OnTrace: onTrace}
		results, stats := fleet.Run(jobs)
		if stats.Failed != 0 {
			t.Fatalf("%d jobs failed", stats.Failed)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, results
	}

	type seen struct {
		tr     *trace.Tracer
		events []trace.Event
		total  int64
	}
	var hooked []seen
	jobs := build(false)
	dirReused, results := run(jobs, func(i int, job *Job, tr *trace.Tracer) {
		if i != len(hooked) || job != &jobs[i] {
			t.Errorf("OnTrace(%d, %s) out of order on a one-worker fleet", i, job.Label())
		}
		hooked = append(hooked, seen{tr, tr.Events(), tr.Seen()})
	})
	dirFresh, _ := run(build(true), nil)
	campaignsIdentical(t, "reused vs fresh recorders", readCampaign(t, dirFresh), readCampaign(t, dirReused))

	if len(hooked) != 2 {
		t.Fatalf("OnTrace ran for %d jobs, want the 2 recorded ones", len(hooked))
	}
	if hooked[0].tr != hooked[1].tr {
		t.Error("a one-worker fleet recorded two jobs on two rings")
	}
	if len(hooked[0].events) != ringCap || hooked[0].total != 3*ringCap+7 {
		t.Errorf("flood: %d retained of %d seen, want %d of %d", len(hooked[0].events), hooked[0].total, ringCap, 3*ringCap+7)
	}
	if len(hooked[1].events) != 5 || hooked[1].total != 5 {
		t.Fatalf("trickle: %d retained of %d seen, want 5 of 5", len(hooked[1].events), hooked[1].total)
	}
	for i, e := range hooked[1].events {
		if e.Component != "trickle" || e.T != sim.Time(i) {
			t.Errorf("trickle event %d is %v — the previous job's", i, e)
		}
	}
	for i := range jobs {
		if jobs[i].Opts.Trace != nil || results[i].Job.Opts.Trace != nil {
			t.Errorf("job %d still aliases the worker's recorder after the fleet drained", i)
		}
	}
}
