package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fakeDef builds a synthetic experiment definition for fleet tests.
func fakeDef(id string, run func(o exp.Options) (*exp.Result, error)) exp.Definition {
	return exp.Definition{ID: id, PaperRef: "test", Title: "fake " + id, Default: sim.Millisecond, Run: run}
}

func okDef(id string, v float64) exp.Definition {
	return fakeDef(id, func(o exp.Options) (*exp.Result, error) {
		return &exp.Result{ID: id, Summary: map[string]float64{"v": v, "seed": float64(o.Seed)}, Notes: []string{"ok"}}, nil
	})
}

func TestFleetPreservesJobOrder(t *testing.T) {
	const n = 16
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Def: okDef(fmt.Sprintf("T%02d", i), float64(i))}
	}
	fleet := &Fleet{Workers: 5}
	results, stats := fleet.Run(jobs)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if got := r.Res.Summary["v"]; got != float64(i) {
			t.Errorf("result %d carries v=%v — completion order leaked into result order", i, got)
		}
	}
	if stats.Runs != n || stats.Failed != 0 || stats.Workers != 5 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Wall <= 0 || stats.WorkWall <= 0 {
		t.Errorf("stats missing wall clocks: %+v", stats)
	}
}

func TestFleetPanicCapture(t *testing.T) {
	jobs := []Job{
		{Def: okDef("T00", 0)},
		{Def: fakeDef("T01", func(exp.Options) (*exp.Result, error) { panic("deliberate crash") })},
		{Def: okDef("T02", 2)},
		{Def: fakeDef("T03", func(exp.Options) (*exp.Result, error) { return nil, errors.New("plain failure") })},
	}
	fleet := &Fleet{Workers: 4}
	results, stats := fleet.Run(jobs)
	if stats.Failed != 2 {
		t.Fatalf("stats.Failed = %d, want 2", stats.Failed)
	}
	r := results[1]
	if !r.Panicked || r.Err == nil || !strings.Contains(r.Err.Error(), "deliberate crash") {
		t.Fatalf("panic not captured: %+v", r)
	}
	if !strings.Contains(r.Stack, "goroutine") {
		t.Errorf("panic result carries no stack")
	}
	if results[3].Panicked || results[3].Err == nil {
		t.Errorf("plain error mishandled: %+v", results[3])
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("healthy job %d infected by neighbor's crash: %v", i, results[i].Err)
		}
	}
}

// panicAfter is a greedy traffic pattern that blows up the first time its
// source consults it at or after the given time.
type panicAfter sim.Time

func (p panicAfter) ActiveAt(t sim.Time) bool {
	if t >= sim.Time(p) {
		panic("deliberate crash on a shard")
	}
	return true
}

func (panicAfter) NextChange(sim.Time) (sim.Time, bool) { return 0, false }

// TestFleetShardedPanicCapture: a panic on a shard goroutine — which the
// worker's recover cannot see — still comes back as that job's Panicked
// result, and the jobs around it are untouched. Before shard.Group.Advance
// carried panics to its caller this took the whole process down.
func TestFleetShardedPanicCapture(t *testing.T) {
	sharded := fakeDef("T01", func(exp.Options) (*exp.Result, error) {
		n, err := scenario.BuildATM(scenario.ATMConfig{
			Switches: 4, TrunkDelay: 20 * sim.Microsecond, Shards: 2,
			Sessions: []scenario.ATMSessionSpec{
				{Name: "healthy", Entry: 0, Exit: 3, Pattern: workload.Greedy{}},
				// Enters at switch 2: its source lives on shard 1, whose
				// engine runs on a goroutine Advance started.
				{Name: "crashing", Entry: 2, Exit: 3, Pattern: panicAfter(sim.Millisecond)},
			},
		})
		if err != nil {
			return nil, err
		}
		defer n.Release()
		if st, ok := n.ShardStats(); !ok || len(st.BusyNS) != 2 {
			return nil, fmt.Errorf("scenario not sharded: %+v", st)
		}
		n.Run(5 * sim.Millisecond)
		return nil, errors.New("run survived the panic")
	})
	jobs := []Job{{Def: okDef("T00", 0)}, {Def: sharded}, {Def: okDef("T02", 2)}}
	results, stats := (&Fleet{Workers: 3}).Run(jobs)
	if stats.Failed != 1 {
		t.Fatalf("stats.Failed = %d, want 1", stats.Failed)
	}
	r := results[1]
	if !r.Panicked || r.Err == nil || !strings.Contains(r.Err.Error(), "deliberate crash on a shard") ||
		!strings.Contains(r.Err.Error(), "shard 1") {
		t.Fatalf("shard panic not captured: %+v", r)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Res == nil {
			t.Errorf("healthy job %d infected by its neighbor's crash: %+v", i, results[i])
		}
	}
}

func TestFleetBoundsWorkers(t *testing.T) {
	const workers, n = 3, 24
	var cur, peak atomic.Int64
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Def: fakeDef(fmt.Sprintf("T%02d", i), func(exp.Options) (*exp.Result, error) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return &exp.Result{ID: "x", Summary: map[string]float64{}}, nil
		})}
	}
	// The fake's Result.ID doesn't match the definition ID, which Execute
	// rejects — that's fine, this test only watches concurrency.
	fleet := &Fleet{Workers: workers}
	fleet.Run(jobs)
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent jobs, want ≤ %d", p, workers)
	}
}

func TestFleetDerivesSeeds(t *testing.T) {
	def := okDef("T00", 1)
	jobs := []Job{
		{Def: def},
		{Def: def, SweepIndex: 5},
		{Def: def, Opts: exp.Options{Seed: 42}, PinSeed: true},
	}
	fleet := &Fleet{Workers: 1}
	results, _ := fleet.Run(jobs)
	if got, want := results[0].Res.Summary["seed"], float64(DeriveSeed("T00", 0)); got != want {
		t.Errorf("job 0 ran with seed %v, want derived %v", got, want)
	}
	if got, want := results[1].Res.Summary["seed"], float64(DeriveSeed("T00", 5)); got != want {
		t.Errorf("sweep job ran with seed %v, want derived %v", got, want)
	}
	if got := results[2].Res.Summary["seed"]; got != 42 {
		t.Errorf("pinned job ran with seed %v, want 42", got)
	}
}

func TestFleetHookPhases(t *testing.T) {
	var mu sync.Mutex
	phases := map[string][]exp.Phase{}
	hook := func(id string, p exp.Phase, err error) {
		mu.Lock()
		defer mu.Unlock()
		phases[id] = append(phases[id], p)
	}
	jobs := []Job{
		{Def: okDef("T00", 0)},
		{Def: fakeDef("T01", func(exp.Options) (*exp.Result, error) { panic("boom") })},
		{Def: fakeDef("T02", func(exp.Options) (*exp.Result, error) { return nil, errors.New("nope") })},
	}
	fleet := &Fleet{Workers: 2, Hook: hook}
	fleet.Run(jobs)
	want := map[string][]exp.Phase{
		"T00": {exp.PhaseStart, exp.PhaseDone},
		"T01": {exp.PhaseStart, exp.PhaseFailed},
		"T02": {exp.PhaseStart, exp.PhaseFailed},
	}
	for id, w := range want {
		got := phases[id]
		if len(got) != len(w) {
			t.Errorf("%s phases = %v, want %v", id, got, w)
			continue
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s phases = %v, want %v", id, got, w)
				break
			}
		}
	}
}

func TestJobLabel(t *testing.T) {
	def := okDef("T00", 0)
	for _, c := range []struct {
		job  Job
		want string
	}{
		{Job{Def: def}, "T00"},
		{Job{Def: def, SweepIndex: 2}, "T00#2"},
		{Job{Def: def, SweepIndex: 2, Name: "named"}, "named"},
	} {
		if got := c.job.Label(); got != c.want {
			t.Errorf("Label() = %q, want %q", got, c.want)
		}
	}
}

// TestFleetSimTime checks the throughput accounting: jobs without an
// explicit duration report the definition default.
func TestFleetSimTime(t *testing.T) {
	def := okDef("T00", 0) // Default: 1ms
	jobs := []Job{
		{Def: def},
		{Def: def, Opts: exp.Options{Duration: 3 * sim.Millisecond}},
	}
	fleet := &Fleet{Workers: 1}
	results, stats := fleet.Run(jobs)
	if results[0].SimTime != sim.Millisecond || results[1].SimTime != 3*sim.Millisecond {
		t.Errorf("per-job sim time: %v, %v", results[0].SimTime, results[1].SimTime)
	}
	if stats.SimTime != 4*sim.Millisecond {
		t.Errorf("stats.SimTime = %v, want 4ms", stats.SimTime)
	}
	if stats.WorkWall <= 0 || stats.Wall <= 0 {
		t.Errorf("work wall %v, wall %v, want both positive", stats.WorkWall, stats.Wall)
	}
}

// telDef builds a fake definition that bumps counters on the registry the
// fleet hands it: a per-job counter of 1, a shared-name counter of v, and a
// peak gauge of v.
func telDef(id string, v uint64) exp.Definition {
	return fakeDef(id, func(o exp.Options) (*exp.Result, error) {
		o.Telemetry.Counter("test.runs").Inc()
		o.Telemetry.Counter("test.cells").Add(v)
		o.Telemetry.Gauge("test.queue_peak").Observe(v)
		return &exp.Result{ID: id, Summary: map[string]float64{}}, nil
	})
}

// TestFleetCounterAggregation checks the Stats.Counters merge convention:
// plain names sum across jobs, *_peak names take the max, and every job gets
// a private registry whose snapshot lands on its own Result.
func TestFleetCounterAggregation(t *testing.T) {
	jobs := []Job{
		{Def: telDef("T00", 10)},
		{Def: telDef("T01", 25)},
		{Def: telDef("T02", 7)},
	}
	fleet := &Fleet{Workers: 3, Telemetry: true}
	results, stats := fleet.Run(jobs)
	if stats.Failed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	for i, want := range []uint64{10, 25, 7} {
		c := results[i].Res.Counters
		if c["test.runs"] != 1 || c["test.cells"] != want || c["test.queue_peak"] != want {
			t.Errorf("job %d counters = %v, want runs=1 cells=%d peak=%d", i, c, want, want)
		}
	}
	want := map[string]uint64{"test.runs": 3, "test.cells": 42, "test.queue_peak": 25}
	if len(stats.Counters) != len(want) {
		t.Fatalf("fleet counters = %v, want %v", stats.Counters, want)
	}
	for k, v := range want {
		if stats.Counters[k] != v {
			t.Errorf("fleet counter %s = %d, want %d", k, stats.Counters[k], v)
		}
	}
}

// TestFleetWithoutTelemetry checks the flag gate: no registries, no
// snapshots, nil fleet totals.
func TestFleetWithoutTelemetry(t *testing.T) {
	jobs := []Job{{Def: fakeDef("T00", func(o exp.Options) (*exp.Result, error) {
		if o.Telemetry != nil {
			t.Error("job received a registry with fleet telemetry off")
		}
		// Inert handles from the nil registry must still be safe to use.
		o.Telemetry.Counter("test.noop").Inc()
		return &exp.Result{ID: "T00", Summary: map[string]float64{}}, nil
	})}}
	fleet := &Fleet{Workers: 1}
	results, stats := fleet.Run(jobs)
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if results[0].Res.Counters != nil || stats.Counters != nil {
		t.Errorf("telemetry-off run produced counters: job=%v fleet=%v",
			results[0].Res.Counters, stats.Counters)
	}
}

// TestFleetOnResult checks the live-visibility feed: one callback per job,
// carrying the job's own result, before Run returns.
func TestFleetOnResult(t *testing.T) {
	const n = 8
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Def: okDef(fmt.Sprintf("T%02d", i), float64(i))}
	}
	var mu sync.Mutex
	seen := map[string]int{}
	fleet := &Fleet{Workers: 4, OnResult: func(i int, r Result) {
		mu.Lock()
		defer mu.Unlock()
		if jobs[i].Label() != r.Job.Label() {
			t.Errorf("OnResult index %d carries job %s, want %s", i, r.Job.Label(), jobs[i].Label())
		}
		seen[r.Job.Label()]++
	}}
	fleet.Run(jobs)
	if len(seen) != n {
		t.Fatalf("OnResult saw %d jobs, want %d: %v", len(seen), n, seen)
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("OnResult fired %d times for %s", c, id)
		}
	}
}
