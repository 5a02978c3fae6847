package main

import (
	"math"
	"time"

	"repro/internal/api"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Per-layer metrics of the simulation workloads (the -trace run). Spans can
// bracket only Build and Net.Run from outside; everything the engine calls
// internally is attributed from the run's own telemetry counts (exact) and
// the ladder's unit costs (estimates).

// overheadReps is how many on/off rep pairs an overhead percentage is the
// median of.
const overheadReps = 3

// overheadPct is how much slower the on sample's median is than the off
// sample's, in percent.
func overheadPct(on, off []float64) float64 {
	if len(on) == 0 || len(off) == 0 || median(off) == 0 {
		return 0
	}
	return 100 * (median(on)/median(off) - 1)
}

// splitByTraced splits one sample per measured op by whether the
// benchmark's spans were on for that op (the -trace run alternates).
func splitByTraced(vs []float64, traced []bool) (on, off []float64) {
	for i, v := range vs {
		if traced[i] {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	return on, off
}

// simLayers reports what every simulation workload has: the scenario
// layer's spans, the benchmark's own tracing overhead, allocation rate,
// and the run's exact event counts from one rep with a telemetry registry
// attached. It returns that rep's counter snapshot and the median Net.Run
// wall in nanoseconds.
func simLayers(b *bench, w *simWorkload, reps []simRep, traced []bool) (map[string]uint64, float64, error) {
	var buildMS, nsPerEvent, walls []float64
	var mallocs, fired uint64
	for _, r := range reps {
		buildMS = append(buildMS, r.buildNS/1e6)
		nsPerEvent = append(nsPerEvent, r.runNS/float64(r.fired))
		walls = append(walls, r.runNS)
		mallocs += r.mallocs
		fired += r.fired
	}
	on, off := splitByTraced(walls, traced)
	b.set("bench.trace_overhead_pct", overheadPct(on, off), len(on), "traced vs untraced rep median")
	b.set("scenario.build_ms", median(buildMS), len(buildMS), "span around Build")
	b.set("scenario.run_ns_per_event", median(nsPerEvent), len(nsPerEvent), "span around Net.Run / events fired, inclusive")
	b.set("bench.allocs_per_kevent", 1000*float64(mallocs)/float64(fired), len(reps), "host mallocs per 1000 events over the measured reps")

	reg := telemetry.New()
	if _, err := w.rep(b.rec, w.shards, -1, reg, nil); err != nil {
		return nil, 0, err
	}
	snap := reg.Snapshot()
	b.set("sim.events_fired", float64(snap["engine.events_fired"]), 0, "")
	b.set("sim.events_scheduled", float64(snap["engine.events_scheduled"]), 0, "")
	b.set("sim.events_canceled", float64(snap["engine.events_canceled"]), 0, "")
	return snap, median(walls), nil
}

// atmLayers reports the cell path's exact counts and its inclusive cost
// per cell hop.
func atmLayers(b *bench, snap map[string]uint64, runNS float64) {
	cells := snap["link.cells_sent"]
	b.set("atmnet.cells_sent", float64(cells), 0, "")
	b.set("atmnet.queue_cells_peak", float64(snap["link.queue_cells_peak"]), 0, "")
	b.set("atm.rm_cells", float64(snap["source.rm_in_rate"]+snap["source.rm_out_of_rate"]), 0, "RM cells the sources emitted")
	b.set("switchalg.interval_ticks", float64(snap["alg.fair_share_updates"]), 0, "")
	if cells > 0 {
		b.set("atmnet.ns_per_cell_hop", runNS/float64(cells), 0, "Net.Run wall / link.cells_sent, inclusive of the engine")
	}
}

// ladderFires sizes a hold-model rung: enough fires for a steady figure in
// a few hundred milliseconds.
func (b *bench) ladderFires(n int) int { return b.scaled(n, 20_000) }

func chainLayers(b *bench, w *simWorkload, reps []simRep, traced []bool) error {
	snap, runNS, err := simLayers(b, w, reps, traced)
	if err != nil {
		return err
	}
	atmLayers(b, snap, runNS)

	// Observation overhead: the same rep with a telemetry registry, with a
	// flight recorder, and bare, interleaved so host drift hits all three.
	var bare, withReg, withTrace []float64
	var reg *telemetry.Registry
	for i := 0; i < overheadReps; i++ {
		r, err := w.rep(nil, 1, -1, nil, nil)
		if err != nil {
			return err
		}
		bare = append(bare, r.runNS)
		reg = telemetry.New()
		if r, err = w.rep(nil, 1, -1, reg, nil); err != nil {
			return err
		}
		withReg = append(withReg, r.runNS)
		if r, err = w.rep(nil, 1, -1, nil, trace.New(api.TraceRingDefault)); err != nil {
			return err
		}
		withTrace = append(withTrace, r.runNS)
	}
	b.set("telemetry.on_overhead_pct", overheadPct(withReg, bare), overheadReps, "rep with vs without a telemetry.Registry")
	b.set("trace.on_overhead_pct", overheadPct(withTrace, bare), overheadReps, "rep with vs without a trace.Tracer")
	b.set("telemetry.snapshot_us", snapshotMicros(b, reg), 200, "Registry.Snapshot of the rep's registry")

	b.set("sim.heap.ns_per_event_1k", holdModel(b, sim.SchedulerHeap, 1000, b.ladderFires(3_000_000)), 0, "hold model, 1k pending")
	b.set("sim.wheel.ns_per_event_1k", holdModel(b, sim.SchedulerWheel, 1000, b.ladderFires(3_000_000)), 0, "hold model, 1k pending")

	onTx, onBRM := phantomRungs(b, b.scaled(20_000_000, 100_000))
	tick := tickRung(b, b.scaled(2_000_000, 10_000))
	b.set("switchalg.phantom.on_transmit_ns", onTx, 0, "direct drive on a stub port")
	b.set("switchalg.phantom.on_backward_rm_ns", onBRM, 0, "direct drive on a stub port")
	b.set("core.tick_ns", tick, 0, "direct drive of PortControl.Tick")

	// OnTransmit runs for every cell an algorithm-carrying port sends:
	// forward trunks and egress ports, i.e. every hop of a cell's forward
	// path after its ingress access link. OnBackwardRM runs once per switch
	// a backward RM cell passes.
	txCalls := float64(snap["switch.cells_data"] + snap["switch.cells_frm"])
	brmCalls := float64(snap["switch.cells_brm"])
	ticks := float64(snap["alg.fair_share_updates"])
	share := 100 * (txCalls*onTx + brmCalls*onBRM + ticks*tick) / runNS
	b.set("switchalg.share_pct", share, 0, "computed: calls x unit cost / Net.Run wall")
	return nil
}

// snapshotMicros times Registry.Snapshot, the per-run cost the fleet pays
// to put counters on a result.
func snapshotMicros(b *bench, reg *telemetry.Registry) float64 {
	sp := b.rec.begin(noSpan, "telemetry.Registry.Snapshot", 0)
	defer b.rec.end(sp)
	var us []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		snap := reg.Snapshot()
		us = append(us, float64(time.Since(t0))/1e3)
		ladderSink += float64(len(snap))
	}
	return median(us)
}

func shardLayers(b *bench, w *simWorkload, reps []simRep, traced []bool, single simRep) error {
	snap, runNS, err := simLayers(b, w, reps, traced)
	if err != nil {
		return err
	}
	atmLayers(b, snap, runNS)

	var busyMax, crit, sync, perEpoch, projected, sharded []float64
	for _, r := range reps {
		var sum, maxBusy uint64
		for _, ns := range r.shard.BusyNS {
			sum += ns
			if ns > maxBusy {
				maxBusy = ns
			}
		}
		busyMax = append(busyMax, float64(maxBusy)/1e6)
		crit = append(crit, float64(r.shard.CritNS)/1e6)
		s := r.runNS - float64(r.shard.CritNS)
		sync = append(sync, s/1e6)
		sharded = append(sharded, r.runNS)
		perEpoch = append(perEpoch, s/1e3/float64(r.shard.Epochs))
		projected = append(projected, float64(sum)/float64(r.shard.CritNS))
	}
	st := reps[0].shard
	b.set("shard.epochs", float64(st.Epochs), 0, "")
	b.set("shard.cells_crossed", float64(st.CellsCrossed), 0, "")
	b.set("shard.busy_ms_max", median(busyMax), len(reps), "busiest shard's engine time, from ShardStats")
	b.set("shard.crit_ms", median(crit), len(reps), "sum over epochs of the slowest shard, from ShardStats")
	b.set("shard.sync_ms", median(sync), len(reps), "Net.Run wall - crit: barriers and conduit flush")
	b.set("shard.overhead_us_per_epoch", median(perEpoch), len(reps), "sync / epochs")
	b.set("shard.projected_speedup", median(projected), len(reps), "sum of busy / crit")

	// Measured speedup compares wall times from this same process and
	// moment: the check rep plus two more single-engine reps, against the
	// sharded reps.
	singles := []float64{single.runNS}
	for i := 0; i < overheadReps-1; i++ {
		r, err := w.rep(nil, 1, -1, nil, nil)
		if err != nil {
			return err
		}
		singles = append(singles, r.runNS)
	}
	measured := median(singles) / median(sharded)
	b.set("shard.measured_speedup", measured, len(singles), "single-engine rep wall / sharded rep wall")
	eff := measured / median(projected)
	if math.IsNaN(eff) || math.IsInf(eff, 0) {
		eff = 0
	}
	b.set("shard.efficiency", eff, 0, "measured / projected; ROADMAP item 6 wants >= 0.7, reported not enforced")
	return nil
}

func tcpLayers(b *bench, w *simWorkload, reps []simRep, traced []bool) error {
	snap, runNS, err := simLayers(b, w, reps, traced)
	if err != nil {
		return err
	}
	for _, name := range []string{"tcp.segments_sent", "tcp.retransmits", "tcp.timeouts", "ip.pkts_sent", "ip.drops_disc"} {
		b.set(name, float64(snap[name]), 0, "")
	}
	if pkts := snap["ip.pkts_sent"]; pkts > 0 {
		b.set("ip.ns_per_pkt_hop", runNS/float64(pkts), 0, "Net.Run wall / ip.pkts_sent, inclusive of the engine")
	}
	b.set("sim.heap.ns_per_event_100k", holdModel(b, sim.SchedulerHeap, 100_000, b.ladderFires(3_000_000)), 0, "hold model, 100k pending")
	b.set("sim.wheel.ns_per_event_100k", holdModel(b, sim.SchedulerWheel, 100_000, b.ladderFires(3_000_000)), 0, "hold model, 100k pending")
	b.set("sim.cancel_ns_per_op_100k", cancelChurn(b, 100_000, b.ladderFires(2_000_000)), 0, "timer restart: Cancel + AfterFunc + drain, 100k pending")
	b.set("core.tick_ns", tickRung(b, b.scaled(2_000_000, 10_000)), 0, "direct drive of PortControl.Tick")
	return nil
}
