package scengen

import (
	"fmt"
	"strings"

	"repro/internal/atm"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simconfig"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Outcome is the invariant checker's view of one finished run: per-session
// and per-link counters plus the activity facts the gated invariants need.
// Series storage is returned to the metrics pool before RunSpec returns, so
// an Outcome is safe to keep.
type Outcome struct {
	AlgName  string
	Duration sim.Duration

	// Per session, indexed like spec sessions.
	Names []string
	// Links[i] lists the directed-link indices session i crosses (2k is
	// edge k's U→V half, 2k+1 its V→U half).
	Links [][]int
	// Sent is data+RM cells the source put on the wire; BackRM is backward
	// RM cells returned to it. Data/RM are the destination's counts.
	Sent, BackRM, Data, RM []int64
	// TailGoodput is the delivered rate (cells/s) over the tail window
	// [TailFrom, Duration]; MeanGoodput is the lifetime mean.
	TailGoodput, MeanGoodput []float64
	// Oracle is the max-min fair rate per session over build-time
	// capacities (nil when the solve failed). OracleActive re-solves with
	// only the tail-active sessions competing — the fair-share ceiling for
	// a session whose neighbors are idle through the tail — and is 0 for
	// sessions not active through the tail.
	Oracle       []float64
	OracleActive []float64
	// SettleOK[i]: session i's ACR entered and held the band around its
	// own tail average.
	SettleOK []bool
	// ActiveTail[i]: the pattern is active through the whole tail window.
	ActiveTail []bool

	// Per directed link.
	LinkCaps  []float64 // cells/s, build-time
	PeakQueue []int
	EndQueue  []int

	TailFrom sim.Time

	HasEvents bool
	HasLoss   bool
	AllGreedy bool
	// AllStopped: every pattern is idle forever from StopMargin before
	// the end, so in-flight cells have drained by Duration.
	AllStopped bool

	Fired uint64
	// Fingerprint folds every observable total, including the engine's
	// fired-event count; equal fingerprints mean equal runs on the same
	// shard count. DataFingerprint drops the event count — cross-shard
	// delivery adds conduit events, so it is the shard-invariant form used
	// to cross-check sharded against single-engine runs.
	Fingerprint     string
	DataFingerprint string
	// Shards is the engine count the spec requested (0 or 1: single).
	Shards int
}

// StopMargin is how long before the end every session must have stopped for
// the drain/conservation invariants to apply: generous slack for queued
// cells, in-flight propagation, and the final RM round trips.
const StopMargin = 150 * sim.Millisecond

// tailWindow returns the measurement tail for a run of length d: the last
// quarter, but at least 50 ms (and never more than d).
func tailWindow(d sim.Duration) sim.Duration {
	t := d / 4
	if t < 50*sim.Millisecond {
		t = 50 * sim.Millisecond
	}
	if t > d {
		t = d
	}
	return t
}

// activeThroughout reports whether p is active at every instant of [a, b],
// by walking its change points from a.
func activeThroughout(p workload.Pattern, a, b sim.Time) bool {
	if !p.ActiveAt(a) {
		return false
	}
	for t := a; t < b; {
		next, ok := p.NextChange(t)
		if !ok || next >= b {
			return true
		}
		if !p.ActiveAt(next) {
			return false
		}
		t = next
	}
	return true
}

// stoppedForever reports whether p is idle at t and never becomes active
// again.
func stoppedForever(p workload.Pattern, t sim.Time) bool {
	if p.ActiveAt(t) {
		return false
	}
	for {
		next, ok := p.NextChange(t)
		if !ok {
			return true
		}
		if p.ActiveAt(next) {
			return false
		}
		t = next
	}
}

// Observe carries the optional observation sinks for one scenario run.
// Both are single-goroutine like the engine, so each run needs its own.
// The zero value observes nothing and costs nothing.
type Observe struct {
	Telemetry *telemetry.Registry
	Trace     *trace.Tracer
}

// RunSpec builds and runs a parsed spec to its duration and extracts the
// Outcome. The caller owns spec and may run it again (patterns are
// stateless observers; nothing is consumed).
func RunSpec(spec *simconfig.Spec) (*Outcome, error) {
	return RunSpecObserved(spec, Observe{})
}

// RunSpecObserved is RunSpec with counter and flight-recorder sinks
// attached to every component the scenario builds. Observation never
// changes the Outcome — fingerprints are bit-identical with or without
// sinks, which the campaign's cross-check path relies on.
func RunSpecObserved(spec *simconfig.Spec, obs Observe) (*Outcome, error) {
	o := &Outcome{
		AlgName:  spec.AlgName,
		Duration: spec.Duration,
		TailFrom: sim.Time(spec.Duration - tailWindow(spec.Duration)),
	}
	stopBy := sim.Time(0)
	if spec.Duration > StopMargin {
		stopBy = sim.Time(spec.Duration - StopMargin)
	}

	cfg := spec.Config
	cfg.Telemetry = obs.Telemetry
	cfg.Trace = obs.Trace
	net, err := scenario.BuildGraph(cfg)
	if err != nil {
		return nil, err
	}
	net.Run(spec.Duration)
	o.HasEvents = len(cfg.Events) > 0
	o.HasLoss = cfg.TrunkLossRate > 0
	for _, ev := range cfg.Events {
		if ev.Kind == scenario.TransientLoss {
			o.HasLoss = true
		}
	}
	o.Links = net.LinkPaths
	for l := 0; l < 2*len(cfg.Edges); l++ {
		o.LinkCaps = append(o.LinkCaps, net.LinkCapacityCPS(l))
		o.PeakQueue = append(o.PeakQueue, net.PeakLinkQueue(l))
		o.EndQueue = append(o.EndQueue, net.LinkQueueLen(l))
	}
	for i := range cfg.Sessions {
		o.extractSession(net.Sources[i], net.Dests[i], net.Goodput[i], net.ACR[i], net.MeanGoodputCPS(i))
	}
	o.Fired = net.FiredTotal()
	o.Shards = net.Shards()
	net.Release()

	o.AllGreedy, o.AllStopped = true, stopBy > 0
	for _, s := range cfg.Sessions {
		o.Names = append(o.Names, s.Name)
		if _, greedy := s.Pattern.(workload.Greedy); !greedy {
			o.AllGreedy = false
		}
		o.ActiveTail = append(o.ActiveTail, activeThroughout(s.Pattern, o.TailFrom, sim.Time(o.Duration)))
		if stopBy == 0 || !stoppedForever(s.Pattern, stopBy) {
			o.AllStopped = false
		}
	}
	o.solveOracles()
	o.DataFingerprint = o.fingerprint()
	o.Fingerprint = fmt.Sprintf("fired=%d %s", o.Fired, o.DataFingerprint)
	return o, nil
}

// solveOracles computes the two max-min views over build-time link
// capacities: all sessions competing, and only the tail-active ones.
func (o *Outcome) solveOracles() {
	if full, err := metrics.MaxMinSolve(metrics.MaxMinProblem{
		Capacity: o.LinkCaps, Sessions: o.Links,
	}); err == nil {
		o.Oracle = full
	}
	var active [][]int
	var idx []int
	for i, on := range o.ActiveTail {
		if on {
			active = append(active, o.Links[i])
			idx = append(idx, i)
		}
	}
	o.OracleActive = make([]float64, len(o.Links))
	if len(active) == 0 {
		return
	}
	rates, err := metrics.MaxMinSolve(metrics.MaxMinProblem{
		Capacity: o.LinkCaps, Sessions: active,
	})
	if err != nil {
		o.OracleActive = nil
		return
	}
	for j, i := range idx {
		o.OracleActive[i] = rates[j]
	}
}

// extractSession pulls one session's counters and tail statistics out of
// the built network, while its series are still live. The ACR settling
// check targets the session's own tail average — it asks "did the rate stop
// moving", not "did it reach the oracle" (that is the envelope invariant).
func (o *Outcome) extractSession(src *atm.Source, dst *atm.Dest, goodput, acr *metrics.Series, meanGoodput float64) {
	o.Sent = append(o.Sent, src.CellsSent())
	o.BackRM = append(o.BackRM, src.BackwardRMsSeen())
	o.Data = append(o.Data, dst.DataCells())
	o.RM = append(o.RM, dst.RMCells())
	o.MeanGoodput = append(o.MeanGoodput, meanGoodput)
	end := sim.Time(o.Duration)
	o.TailGoodput = append(o.TailGoodput, goodput.TimeAvg(o.TailFrom, end))
	target := acr.TimeAvg(o.TailFrom, end)
	_, ok := metrics.ConvergenceTime(acr, 0, end, target, settleTol, settleHold)
	o.SettleOK = append(o.SettleOK, ok)
}

const (
	settleTol  = 0.25
	settleHold = 20 * sim.Millisecond
)

// fingerprint folds the run's data-plane totals into a stable string —
// per-session cell counts and per-link queue extremes. It deliberately
// excludes the fired-event count so the result is comparable across shard
// counts; Fingerprint prepends it for same-shard-count determinism checks.
func (o *Outcome) fingerprint() string {
	var b strings.Builder
	for i := range o.Sent {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "s%d=%d/%d/%d/%d", i, o.Sent[i], o.Data[i], o.RM[i], o.BackRM[i])
	}
	for l := range o.PeakQueue {
		fmt.Fprintf(&b, " q%d=%d/%d", l, o.PeakQueue[l], o.EndQueue[l])
	}
	return b.String()
}
