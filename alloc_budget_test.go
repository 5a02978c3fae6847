package repro

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// preRefactorAllocsPerOp is the engine hot-path cost before event-cell
// pooling (one heap allocation per scheduled event plus loop overhead),
// measured on the seed engine with the same 1000-event workload as
// engineHotPath below. Pooled events must stay at least 20% below it,
// whatever the budget file says.
const preRefactorAllocsPerOp = 1005

// allocStats is one workload's measured cost.
type allocStats struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// engineHotPath drives 1000 events through self-rescheduling chains — the
// port-transmit pattern that dominates experiment run time.
func engineHotPath() {
	e := sim.NewEngine()
	for s := 0; s < 8; s++ {
		gap := sim.Duration(700 + 13*s)
		left := 125
		var tick sim.Handler
		tick = func(en *sim.Engine) {
			left--
			if left > 0 {
				en.After(gap, tick)
			}
		}
		e.After(gap, tick)
	}
	e.RunUntil(sim.Time(sim.Second))
}

// budgetFile mirrors testdata/alloc_budget.json.
type budgetFile struct {
	SchemaVersion int                               `json:"schema_version"`
	Note          string                            `json:"note"`
	Budgets       map[string]map[string]allocBudget `json:"budgets"`
}

type allocBudget struct {
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

func loadBudgets(t *testing.T) budgetFile {
	t.Helper()
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf budgetFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatalf("testdata/alloc_budget.json: %v", err)
	}
	return bf
}

// measureHotPath benchmarks the 1000-event engine chain.
func measureHotPath() allocStats {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engineHotPath()
		}
	})
	return allocStats{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
}

// measureSuite benchmarks experiment id at quick duration. E01 is the
// representative end-to-end cell path (sources, links, switch algorithm,
// metrics sampling); E09 (Reno over drop-tail and Selective Discard
// routers) is the packet path: senders, receivers, ports and routers.
// With newTrace set, each op runs on a recorder of its own, the way each
// fleet worker, daemon job and shard gets one: E01 quick records ~400
// events, so the op pays for those, while a ring that allocated its
// capacity up front (17.8 MB at cli.TraceRingCap) would exceed the budget.
func measureSuite(t testing.TB, id string, newTrace func() *trace.Tracer) allocStats {
	def, ok := exp.Get(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	d := runner.QuickDuration(id)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := exp.Options{Quiet: true, Duration: d}
			if newTrace != nil {
				o.Trace = newTrace()
			}
			if _, err := exp.Execute(def, o, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	return allocStats{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
}

// measureSuiteE01Telemetry is measureSuite(E01) with the full observability
// stack on: a counter registry and a flight recorder at the CLI ring
// capacity. The registry and ring are created once and reused by every
// op (the ring Reset, the registry's names resolved once), so the
// measurement is the steady-state cost of observing the run — budgeted at ≤2× the disabled
// path.
func measureSuiteE01Telemetry(t testing.TB) allocStats {
	def, ok := exp.Get("E01")
	if !ok {
		t.Fatal("E01 not registered")
	}
	d := runner.QuickDuration("E01")
	reg := telemetry.New()
	tr := trace.New(cli.TraceRingCap)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Reset()
			res, err := exp.Execute(def, exp.Options{Quiet: true, Duration: d, Telemetry: reg, Trace: tr}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Counters) == 0 || tr.Seen() == 0 {
				b.Fatal("telemetry-on run recorded nothing")
			}
		}
	})
	return allocStats{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
}

// TestAllocBudget enforces the committed allocation budgets of the engine's
// calendar, the heap. It runs in the ordinary test suite (CI's test job
// also runs it once without -race, under which it skips itself) so a
// change that reintroduces a per-cell or per-packet allocation — a closure
// in a transmit path, a cell escaping to the heap at an observer call, a
// packet built with & instead of ip.NewPacket — fails the build
// rather than silently regressing throughput.
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	if testing.Short() {
		t.Skip("benchmarking loop; skipped in -short mode")
	}
	bf := loadBudgets(t)
	hot := measureHotPath()
	if hot.AllocsPerOp*100 > preRefactorAllocsPerOp*80 {
		t.Errorf("engine_hot_path_1000_events: %d allocs/op, want ≥20%% below the pre-pooling baseline %d",
			hot.AllocsPerOp, preRefactorAllocsPerOp)
	}
	for _, m := range []struct {
		workload string
		got      allocStats
	}{
		{"engine_hot_path_1000_events", hot},
		{"suite_e01_quick", measureSuite(t, "E01", nil)},
		{"suite_e09_quick", measureSuite(t, "E09", nil)},
		{"suite_e01_quick_telemetry", measureSuiteE01Telemetry(t)},
		{"suite_e01_quick_fresh_recorder", measureSuite(t, "E01", func() *trace.Tracer { return trace.New(cli.TraceRingCap) })},
	} {
		budget, ok := bf.Budgets[m.workload]["heap"]
		if !ok {
			t.Fatalf("no heap budget for %s in testdata/alloc_budget.json", m.workload)
		}
		if m.got.AllocsPerOp > budget.AllocsPerOp {
			t.Errorf("%s: %d allocs/op exceeds budget %d", m.workload, m.got.AllocsPerOp, budget.AllocsPerOp)
		}
		if m.got.BytesPerOp > budget.BytesPerOp {
			t.Errorf("%s: %d B/op exceeds budget %d", m.workload, m.got.BytesPerOp, budget.BytesPerOp)
		}
		t.Logf("%s: %d allocs/op (budget %d), %d B/op (budget %d), %d ns/op",
			m.workload, m.got.AllocsPerOp, budget.AllocsPerOp,
			m.got.BytesPerOp, budget.BytesPerOp, m.got.NsPerOp)
	}
}
