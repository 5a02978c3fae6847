package scenario

import (
	"fmt"

	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// shardPlan is the build- and run-time context of a (possibly) sharded
// scenario. With one shard it degenerates to exactly the single-engine
// build: one engine, the caller's registry and tracer, no group — the
// construction call sequence is bit-identical to the pre-sharding builder,
// which is what keeps the goldens byte-stable.
//
// With N > 1 shards every shard owns an engine plus a private telemetry
// registry and tracer (both are single-goroutine, like the engine whose
// run they observe); the caller's registry and tracer see merged deltas at
// the end of every Run, on the coordinating goroutine.
type shardPlan struct {
	part    shard.Partition
	engines []*sim.Engine
	regs    []*telemetry.Registry
	tracers []*trace.Tracer
	group   *shard.Group // nil when single-shard

	parentReg *telemetry.Registry
	parentTr  *trace.Tracer

	flushes   []engineFlush
	prevSnap  []map[string]uint64
	traceSeen []int64
	// lastSamples is the per-shard previous sampler tick (all shards tick
	// at the same simulated times; each needs its own memory because each
	// runs its own sampler).
	lastSamples []sim.Time
}

// resolvePartition turns the config's (Shards, Partition) pair into a
// validated assignment. An explicit partition wins; otherwise auto
// partitions (clamped to the node count), and shards ≤ 1 collapses to the
// single-shard plan.
func resolvePartition(nodes, shards int, explicit []int, auto func(int) shard.Partition) (shard.Partition, error) {
	if explicit != nil {
		n := shards
		if n <= 0 {
			for _, s := range explicit {
				if s+1 > n {
					n = s + 1
				}
			}
			if n < 1 {
				n = 1
			}
		}
		p := shard.Partition{Shards: n, Node: explicit}
		if err := p.Validate(nodes); err != nil {
			return shard.Partition{}, fmt.Errorf("scenario: %w", err)
		}
		return p, nil
	}
	if shards <= 1 {
		return shard.Partition{Shards: 1, Node: make([]int, nodes)}, nil
	}
	return auto(shards), nil
}

// newShardPlan builds the engines and per-shard observability for a
// resolved partition, validating the cut's lookahead against edges.
func newShardPlan(part shard.Partition, edges []shard.Edge, reg *telemetry.Registry, tr *trace.Tracer) (*shardPlan, error) {
	p := &shardPlan{part: part, parentReg: reg, parentTr: tr}
	if part.Shards == 1 {
		p.engines = []*sim.Engine{sim.NewEngine()}
		p.regs = []*telemetry.Registry{reg}
		p.tracers = []*trace.Tracer{tr}
		p.flushes = make([]engineFlush, 1)
		p.lastSamples = make([]sim.Time, 1)
		return p, nil
	}
	window, err := part.Lookahead(edges)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	p.engines = make([]*sim.Engine, part.Shards)
	p.regs = make([]*telemetry.Registry, part.Shards)
	p.tracers = make([]*trace.Tracer, part.Shards)
	for i := range p.engines {
		p.engines[i] = sim.NewEngine()
		if reg != nil {
			p.regs[i] = telemetry.New()
		}
		if tr != nil {
			p.tracers[i] = trace.New(tr.Cap())
		}
	}
	p.group = shard.NewGroup(p.engines, window, reg)
	p.flushes = make([]engineFlush, part.Shards)
	p.prevSnap = make([]map[string]uint64, part.Shards)
	p.traceSeen = make([]int64, part.Shards)
	p.lastSamples = make([]sim.Time, part.Shards)
	return p, nil
}

// shardOf returns the shard owning node.
func (p *shardPlan) shardOf(node int) int { return p.part.Node[node] }

// engineFor returns the engine owning node's components.
func (p *shardPlan) engineFor(node int) *sim.Engine { return p.engines[p.shardOf(node)] }

// regFor returns the telemetry registry node's components instrument into.
func (p *shardPlan) regFor(node int) *telemetry.Registry { return p.regs[p.shardOf(node)] }

// traceFor returns the tracer node's components emit into.
func (p *shardPlan) traceFor(node int) *trace.Tracer { return p.tracers[p.shardOf(node)] }

// run advances the whole scenario by d: the plain RunUntil on a single
// shard, the group's epoch-barrier protocol otherwise.
func (p *shardPlan) run(d sim.Duration) {
	if p.group == nil {
		p.engines[0].RunUntil(p.engines[0].Now().Add(d))
		return
	}
	p.group.Advance(d)
}

// flush folds every engine's event statistics — and, when sharded, the
// per-shard registries' growth and the per-shard tracers' new events —
// into the caller's registry and tracer. Runs on the coordinating
// goroutine with every shard goroutine finished, so reading the live
// per-shard state is ordered and race-free.
func (p *shardPlan) flush() {
	for i := range p.engines {
		p.flushes[i].flush(p.parentReg, p.engines[i])
	}
	if p.group == nil {
		return
	}
	if p.parentReg != nil {
		for i, r := range p.regs {
			cur := r.Snapshot()
			telemetry.AbsorbDelta(p.parentReg, cur, p.prevSnap[i])
			p.prevSnap[i] = cur
		}
	}
	if p.parentTr != nil {
		p.mergeTraces()
	}
}

// mergeTraces re-emits each shard tracer's events since the previous flush
// into the parent tracer, k-way merged by event time (ties by shard
// index), so the parent ring reads like a single chronological recorder.
// Events evicted from a shard's ring between flushes are lost, exactly as
// they would be from a single ring of the same capacity. The new events are
// read in place, as the tail of each ring's two retained runs: tails[i][0]
// is the part still to merge, tails[i][1] what follows it, and [0] is empty
// only once both are.
func (p *shardPlan) mergeTraces() {
	tails := make([][2][]trace.Event, len(p.tracers))
	for i, tr := range p.tracers {
		n := int(min(tr.Seen()-p.traceSeen[i], int64(tr.Len())))
		p.traceSeen[i] = tr.Seen()
		older, newer := tr.Retained()
		if n <= len(newer) {
			tails[i][0] = newer[len(newer)-n:]
		} else {
			tails[i] = [2][]trace.Event{older[len(older)-(n-len(newer)):], newer}
		}
	}
	for {
		best := -1
		for i := range tails {
			if len(tails[i][0]) > 0 && (best < 0 || tails[i][0][0].T < tails[best][0][0].T) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		t := &tails[best]
		ev := &t[0][0]
		p.parentTr.Emit(ev.T, ev.Component, ev.Kind, ev.Fields()...)
		if t[0] = t[0][1:]; len(t[0]) == 0 {
			t[0], t[1] = t[1], nil
		}
	}
}
