package scenario

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// graphOutcome summarizes the observable data of a GraphNet run — delivered
// and sent cells plus tail goodput per session — deliberately excluding
// fired-event counts, which legitimately differ between a single engine and
// a shard group (conduit deliveries and per-shard samplers add events).
func graphOutcome(n *GraphNet, tail sim.Time) string {
	out := ""
	end := n.Engine.Now()
	for i := range n.Dests {
		out += fmt.Sprintf("%d/%d/%.6f ", n.Dests[i].DataCells(), n.Sources[i].CellsSent(),
			n.Goodput[i].TimeAvg(end-tail, end))
	}
	return out
}

// TestGraphShardedMatchesSingle is the scenario-layer determinism contract:
// the same graph topology run across 2, 3 and 4 engines under the epoch
// protocol produces the identical per-session data to a single engine, with
// a transient event in flight to exercise the split event-scheduling path.
func TestGraphShardedMatchesSingle(t *testing.T) {
	run := func(shards int) (string, *GraphNet) {
		cfg := diamondConfig()
		cfg.Shards = shards
		cfg.Events = []TransientEvent{
			{At: 100 * sim.Millisecond, Kind: TransientRate, Index: 0, Value: 50e6},
		}
		n, err := BuildGraph(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		n.Run(300 * sim.Millisecond)
		return graphOutcome(n, sim.Time(100*sim.Millisecond)), n
	}

	single, _ := run(1)
	for _, N := range []int{2, 3, 4} {
		got, n := run(N)
		if got != single {
			t.Errorf("shards=%d diverges from single engine:\n  %s\nvs\n  %s", N, got, single)
		}
		if n.Shards() != N {
			t.Errorf("Shards() = %d, want %d", n.Shards(), N)
		}
		st, ok := n.ShardStats()
		if !ok || st.Epochs == 0 {
			t.Errorf("shards=%d: no shard stats (ok=%v, epochs=%d)", N, ok, st.Epochs)
		}
		if st.CellsCrossed == 0 {
			t.Errorf("shards=%d: no cells crossed a conduit; partition is degenerate", N)
		}
	}

	// Run-to-run byte identity at a fixed shard count.
	a, _ := run(3)
	b, _ := run(3)
	if a != b {
		t.Errorf("sharded run not reproducible:\n  %s\nvs\n  %s", a, b)
	}
}

// TestATMShardedMatchesSingle runs a 4-switch parking lot sharded 2 and 4
// ways and requires the linear-topology builder to match its single-engine
// outcome exactly.
func TestATMShardedMatchesSingle(t *testing.T) {
	build := func(shards int) *ATMNet {
		cfg := ATMConfig{
			Switches: 4,
			Alg:      switchalg.NewPhantom(core.Config{UtilizationFactor: 5}),
			Sessions: []ATMSessionSpec{
				{Name: "long", Entry: 0, Exit: 3, Pattern: workload.Greedy{}},
				{Name: "mid", Entry: 1, Exit: 2, Pattern: workload.Greedy{}},
				{Name: "tail", Entry: 2, Exit: 3, Pattern: workload.Greedy{}},
			},
			Shards: shards,
		}
		n, err := BuildATM(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		n.Run(300 * sim.Millisecond)
		return n
	}
	outcome := func(n *ATMNet) string {
		out := ""
		end := n.Engine.Now()
		for i := range n.Dests {
			out += fmt.Sprintf("%d/%d/%.6f ", n.Dests[i].DataCells(), n.Sources[i].CellsSent(),
				n.Goodput[i].TimeAvg(end-sim.Time(100*sim.Millisecond), end))
		}
		for _, q := range n.PeakTrunkQueue {
			out += fmt.Sprintf("q%d ", q)
		}
		return out
	}

	single := outcome(build(1))
	for _, N := range []int{2, 4} {
		n := build(N)
		if got := outcome(n); got != single {
			t.Errorf("shards=%d diverges from single engine:\n  %s\nvs\n  %s", N, got, single)
		}
		if st, ok := n.ShardStats(); !ok || st.CellsCrossed == 0 {
			t.Errorf("shards=%d: conduits idle (stats %+v ok=%v)", N, st, ok)
		}
	}
}

// TestShardTraceMerge runs a traced 2-shard chain in Run slices with rings
// small enough that a shard's ring wraps between flushes. After every slice the
// parent ring must equal a recorder fed, slice by slice, each shard's
// events since the previous flush (as far as its ring kept them) merged by
// time, ties to the lower shard index.
func TestShardTraceMerge(t *testing.T) {
	const ringCap = 8
	tr := trace.New(ringCap)
	cfg := ATMConfig{
		Switches:      6,
		TrunkRatesBPS: []float64{0, 50e6, 0, 100e6, 0},
		TrunkDelay:    20 * sim.Microsecond,
		Alg:           switchalg.NewPhantom(core.Config{UtilizationFactor: 5}),
		Trace:         tr,
		Sessions: []ATMSessionSpec{
			{Name: "long", Entry: 0, Exit: 5, Pattern: workload.Greedy{}},
			{Name: "mid", Entry: 1, Exit: 4, Pattern: workload.Greedy{}},
			{Name: "head", Entry: 0, Exit: 1, Pattern: workload.PeriodicOnOff{On: 4 * sim.Millisecond, Off: 3 * sim.Millisecond}},
			{Name: "tail", Entry: 4, Exit: 5, Pattern: workload.Window{Start: sim.Time(5 * sim.Millisecond), Stop: sim.Time(25 * sim.Millisecond)}},
		},
		Shards: 2,
	}
	g := cfg.Lower()
	g.Events = []TransientEvent{
		{At: 10 * sim.Millisecond, Kind: TransientRate, Index: 1, Value: 25e6},
		{At: 15 * sim.Millisecond, Kind: TransientLoss, Index: 3, Value: 0.02},
	}
	n, err := buildChain(g, "switches")
	if err != nil {
		t.Fatal(err)
	}
	want := trace.New(ringCap)
	seen := make([]int64, len(n.plan.tracers))
	type tagged struct {
		shard int
		ev    trace.Event
	}
	wrapped := 0
	for _, ms := range []sim.Duration{1, 1, 1, 2, 5, 10, 3, 7} {
		n.Run(ms * sim.Millisecond)
		var batch []tagged
		for i, st := range n.plan.tracers {
			evs := st.Events()
			k := st.Seen() - seen[i]
			seen[i] = st.Seen()
			if k > int64(len(evs)) {
				wrapped++
				k = int64(len(evs))
			}
			for _, ev := range evs[int64(len(evs))-k:] {
				batch = append(batch, tagged{i, ev})
			}
		}
		sort.SliceStable(batch, func(a, b int) bool { return batch[a].ev.T < batch[b].ev.T })
		for _, b := range batch {
			want.Emit(b.ev.T, b.ev.Component, b.ev.Kind, b.ev.Fields()...)
		}
		if !reflect.DeepEqual(tr.Events(), want.Events()) || tr.Seen() != want.Seen() {
			t.Fatalf("after %v: parent ring (%d seen)\n%v\nwant (%d seen)\n%v", n.Engine.Now(), tr.Seen(), tr.Events(), want.Seen(), want.Events())
		}
	}
	if wrapped == 0 {
		t.Fatal("no shard ring wrapped between flushes; the merge's eviction path went unexercised")
	}
}

// TestShardTelemetryCounters checks that a sharded run surfaces both the
// shard.* sync counters and the per-shard component counters (merged by
// delta absorption) through the scenario's parent registry.
func TestShardTelemetryCounters(t *testing.T) {
	reg := telemetry.New()
	cfg := diamondConfig()
	cfg.Shards = 2
	cfg.Telemetry = reg
	n, err := BuildGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(300 * sim.Millisecond)
	st, ok := n.ShardStats()
	if !ok {
		t.Fatal("no shard stats on a 2-shard run")
	}
	if st.Epochs == 0 || st.CellsCrossed == 0 {
		t.Fatalf("stats %+v: want nonzero epochs and crossings", st)
	}
	if len(st.BusyNS) != 2 {
		t.Fatalf("BusyNS per shard = %v, want 2 entries", st.BusyNS)
	}
	var _ shard.Stats = st

	snap := reg.Snapshot()
	if snap["shard.cells_crossed"] != st.CellsCrossed {
		t.Errorf("shard.cells_crossed = %d, want %d", snap["shard.cells_crossed"], st.CellsCrossed)
	}
	if snap["shard.barrier_waits"] == 0 {
		t.Error("shard.barrier_waits not surfaced")
	}
	// Component counters from every shard's private registry must have been
	// folded into the parent.
	if snap["link.cells_sent"] == 0 {
		t.Errorf("per-shard link counters not merged into parent registry: %v", snap)
	}
}
