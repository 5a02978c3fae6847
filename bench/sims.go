package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/ip"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The three simulation workloads share one driver: build the scenario,
// run it for a fixed simulated duration, fingerprint what it delivered,
// repeat until the measuring time is up. A rep is the unit operation; its
// wall time is Net.Run only (the build is set-up, timed separately).

const (
	chainSwitches = 24
	chainLocals   = chainSwitches - 1
	chainLongs    = 4
	chainLongHops = 18
	// chainRepSim is one atm_chain rep: ~3 M events, ~0.6 s on the 2-core
	// host this is sized for, so a 20 s run takes a median over ~33 reps.
	chainRepSim = 100 * sim.Millisecond

	tcpRouters = 4
	tcpFlows   = 2000
	// tcpRepSim is one tcp_timers rep: ~2.6 M events fired, ~21 k pending,
	// ~5 % of the scheduled events cancelled, ~1.0 s, so a 20 s run takes a
	// median over ~18 reps. Shorter reps differ more from seed to seed
	// (1.5 s: ±3 % in events fired, against ±1.5 %).
	tcpRepSim = 3000 * sim.Millisecond

	// setupReps is how many times set-up is repeated for setup_s. Set-up is
	// everything a run does before its steady state: build the scenario and
	// run it once, which fills the engine's event-cell pool and the series
	// pool. (The build alone is the per-layer scenario.build_ms.)
	setupReps = 5
	// minReps is the fewest measured reps a run reports a median over.
	minReps = 3
	// closedFormTolerance is the acceptance band of E08's settled MACR
	// against C/(1+k·u): the same 15% exp_test.go holds the experiment to.
	closedFormTolerance = 0.15
)

// simNet is the part of a built scenario the driver needs, so ATM and TCP
// networks run through the same loop.
type simNet struct {
	run     func(d sim.Duration)
	release func()
	fired   func() uint64
	// data fingerprints what the run delivered, independent of how many
	// engines ran it: per-session deliveries, per-trunk utilisation and
	// final MACR bits, retransmits and timeouts.
	data  func() string
	shard func() (shard.Stats, bool)
}

// simWorkload is one simulation workload's recipe.
type simWorkload struct {
	buildSpan, runSpan string
	dur                sim.Duration
	build              func(shards int, reg *telemetry.Registry, tr *trace.Tracer) (*simNet, error)
	shards             int
}

// simRep is one rep's measurements: the wall time of the build and of
// Net.Run in nanoseconds, and what the run did.
type simRep struct {
	buildNS, runNS float64
	fired, mallocs uint64
	data           string
	shard          shard.Stats
}

func (r simRep) fingerprint() string { return fmt.Sprintf("fired=%d %s", r.fired, r.data) }

// chainConfig is the 24-switch parking lot of BENCH_shard.json with the
// chain-spanning sessions placed by seed: 23 one-hop greedy sessions plus 4
// that each cross chainLongHops trunks, entering at a seeded switch. The
// path length is fixed so that every seed simulates the same amount of
// work: a rep's wall time must not depend on the seed.
func chainConfig(seed uint64, dur sim.Duration) scenario.ATMConfig {
	rng := rand.New(rand.NewSource(int64(seed)))
	cfg := scenario.ATMConfig{
		Switches:   chainSwitches,
		TrunkDelay: 20 * sim.Microsecond,
		Alg:        switchalg.NewPhantom(core.Config{UtilizationFactor: 5}),
		Duration:   dur,
	}
	for i := 0; i < chainLocals; i++ {
		cfg.Sessions = append(cfg.Sessions, scenario.ATMSessionSpec{
			Name: fmt.Sprintf("local%d", i), Entry: i, Exit: i + 1, Pattern: workload.Greedy{},
		})
	}
	for i := 0; i < chainLongs; i++ {
		entry := rng.Intn(chainSwitches - chainLongHops)
		cfg.Sessions = append(cfg.Sessions, scenario.ATMSessionSpec{
			Name: fmt.Sprintf("long%d", i), Entry: entry, Exit: entry + chainLongHops, Pattern: workload.Greedy{},
		})
	}
	return cfg
}

func floatBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func chainWorkload(b *bench, shards int) *simWorkload {
	dur := sim.Duration(float64(chainRepSim) * b.scale)
	if dur < 2*sim.Millisecond {
		dur = 2 * sim.Millisecond
	}
	return &simWorkload{
		buildSpan: "scenario.BuildATM", runSpan: "scenario.ATMNet.Run", dur: dur, shards: shards,
		build: func(shards int, reg *telemetry.Registry, tr *trace.Tracer) (*simNet, error) {
			cfg := chainConfig(b.seed, dur)
			cfg.Shards, cfg.Telemetry, cfg.Trace = shards, reg, tr
			n, err := scenario.BuildATM(cfg)
			if err != nil {
				return nil, err
			}
			return &simNet{
				run: n.Run, release: n.Release, fired: n.FiredTotal, shard: n.ShardStats,
				data: func() string {
					var s strings.Builder
					for i, d := range n.Dests {
						fmt.Fprintf(&s, "s%d=%d/%d ", i, d.DataCells(), d.RMCells())
					}
					for k := range n.TrunkQueue {
						fmt.Fprintf(&s, "t%d=%s/%s/%d ", k, floatBits(n.TrunkUtilization(k)), floatBits(n.FairShare[k].Last()), n.PeakTrunkQueue[k])
					}
					return s.String()
				},
			}, nil
		},
	}
}

// tcpConfig is 2000 greedy Reno flows over a 4-router chain with Phantom
// Selective Discard on every trunk. Paths cycle through the six entry/exit
// pairs and every second flow uses delayed ACKs, so flow i's class is i%6.
// Each class holds the same multiset of access delays, 1–20 ms in equal
// numbers, at every seed; the seed assigns them to the class's flows. A
// flow's RTT is therefore seeded, while the mix of paths, ACK policies and
// RTTs — and with it the amount of simulated work — is not: a rep's wall
// time must not depend on the seed.
func tcpConfig(seed uint64, flows int, dur sim.Duration) scenario.TCPConfig {
	rng := rand.New(rand.NewSource(int64(seed)))
	cfg := scenario.TCPConfig{
		Routers:      tcpRouters,
		TrunkRateBPS: 155e6,
		Duration:     dur,
		Disc: func() ip.Discipline {
			return ip.NewPhantomDiscipline(ip.SelectiveDiscard, core.Config{UtilizationFactor: 5})
		},
	}
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}, {1, 3}, {0, 3}}
	delays := make([][]int, len(pairs))
	for c := range delays {
		members := (flows - c + len(pairs) - 1) / len(pairs)
		delays[c] = make([]int, members)
		for j := range delays[c] {
			delays[c][j] = 1 + j%20
		}
		rng.Shuffle(members, func(a, b int) { delays[c][a], delays[c][b] = delays[c][b], delays[c][a] })
	}
	for i := 0; i < flows; i++ {
		c := i % len(pairs)
		cfg.Flows = append(cfg.Flows, scenario.TCPFlowSpec{
			Name: fmt.Sprintf("f%d", i), Entry: pairs[c][0], Exit: pairs[c][1],
			AccessDelay: sim.Duration(delays[c][i/len(pairs)]) * sim.Millisecond,
			DelayedAcks: i%2 == 0,
		})
	}
	return cfg
}

func tcpWorkload(b *bench) *simWorkload {
	dur := sim.Duration(float64(tcpRepSim) * b.scale)
	if dur < 100*sim.Millisecond {
		dur = 100 * sim.Millisecond
	}
	flows := b.scaled(tcpFlows, 12)
	return &simWorkload{
		buildSpan: "scenario.BuildTCP", runSpan: "scenario.TCPNet.Run", dur: dur, shards: 1,
		build: func(_ int, reg *telemetry.Registry, tr *trace.Tracer) (*simNet, error) {
			cfg := tcpConfig(b.seed, flows, dur)
			cfg.Telemetry, cfg.Trace = reg, tr
			n, err := scenario.BuildTCP(cfg)
			if err != nil {
				return nil, err
			}
			return &simNet{
				run: n.Run, release: n.Release, fired: n.Engine.Fired,
				shard: func() (shard.Stats, bool) { return shard.Stats{}, false },
				data: func() string {
					var s strings.Builder
					var retx, rto int64
					for i, r := range n.Receivers {
						fmt.Fprintf(&s, "f%d=%d ", i, r.DeliveredBytes())
						retx += n.Senders[i].Retransmits()
						rto += n.Senders[i].Timeouts()
					}
					for k := range n.TrunkQueue {
						fmt.Fprintf(&s, "t%d=%s/%s/%d ", k, floatBits(n.TrunkUtilization(k)), floatBits(n.MACR[k].Last()), n.TrunkDrops(k))
					}
					fmt.Fprintf(&s, "retx=%d rto=%d", retx, rto)
					return s.String()
				},
			}, nil
		},
	}
}

// rep builds and runs the scenario once. Spans go to rec (nil: off); reg
// and tr attach the repository's own telemetry registry / flight recorder
// to the run for the on-vs-off overhead reps.
func (w *simWorkload) rep(rec *recorder, shards, rep int, reg *telemetry.Registry, tr *trace.Tracer) (simRep, error) {
	var out simRep
	runtime.GC() // every rep starts from the same collector state
	root := rec.begin(noSpan, "rep", rep)
	defer rec.end(root)

	sp := rec.begin(root, w.buildSpan, rep)
	t0 := time.Now()
	n, err := w.build(shards, reg, tr)
	out.buildNS = float64(time.Since(t0))
	rec.end(sp)
	if err != nil {
		return out, err
	}
	defer n.release()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp = rec.begin(root, w.runSpan, rep)
	t0 = time.Now()
	n.run(w.dur)
	out.runNS = float64(time.Since(t0))
	rec.end(sp)
	runtime.ReadMemStats(&after)

	sp = rec.begin(root, "fingerprint", rep)
	out.mallocs = after.Mallocs - before.Mallocs
	out.fired = n.fired()
	out.data = n.data()
	out.shard, _ = n.shard()
	rec.end(sp)
	return out, nil
}

// runSim is the shared driver. It returns the measured reps and, for the
// per-layer code, which of them had the benchmark's spans on (the -trace
// run alternates).
func runSim(b *bench, w *simWorkload) (reps []simRep, traced []bool, err error) {
	// Set-up reps: build + first run, timed for setup_s. They warm the
	// process up, and the first fixes the fingerprint every measured rep
	// must reproduce.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		r, err := w.rep(nil, w.shards, 0, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			b.fingerprint = r.fingerprint()
			b.counts["events_fired"] = int64(r.fired)
		}
		setups = append(setups, (r.buildNS+r.runNS)/1e9)
	}
	b.set(mSetup, median(setups), setupReps, "build the scenario and run it once")

	budget := time.Duration(b.seconds * float64(time.Second))
	if b.tracing() {
		budget /= 2 // the other half of the run is the layer ladder
	}
	start := time.Now()
	for i := 1; len(reps) < minReps || time.Since(start) < budget; i++ {
		rec := b.rec
		if i%2 == 0 {
			rec = nil // trace mode alternates traced and untraced reps
		}
		r, err := w.rep(rec, w.shards, i, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		b.op()
		if fp := r.fingerprint(); fp != b.fingerprint {
			b.fail("rep %d fingerprint differs from the first rep's:\n%s\nvs\n%s", i, fp, b.fingerprint)
		}
		reps = append(reps, r)
		traced = append(traced, rec != nil)
	}
	if !b.tracing() {
		if err := b.recordPeakRSS("VmHWM when the measured reps end"); err != nil {
			return nil, nil, err
		}
	}

	var perS, ms []float64
	for _, r := range reps {
		perS = append(perS, float64(r.fired)/(r.runNS/1e9))
		ms = append(ms, r.runNS/1e6)
	}
	b.set(mWork, median(perS), len(perS), "simulated events fired per host second of Net.Run, median over reps")
	b.set(mOpMS, median(ms), len(ms), "one rep's Net.Run, median over reps")
	return reps, traced, nil
}

// singleEngineCheck runs the sharded workload's scenario once on a single
// engine and holds the sharded fingerprint's shard-invariant part to it.
func singleEngineCheck(b *bench, w *simWorkload, sharded simRep) (simRep, error) {
	single, err := w.rep(nil, 1, 0, nil, nil)
	if err != nil {
		return single, err
	}
	b.op()
	if single.data != sharded.data {
		b.fail("%d-shard run differs from the single-engine run:\n%s\nvs\n%s", w.shards, sharded.data, single.data)
	}
	return single, nil
}

// closedFormCheck runs E08 at its quick duration — the experiment that
// settles k greedy sessions and compares MACR with C/(1+k·u) — and holds
// the worst relative error to the tolerance.
func closedFormCheck(b *bench) (float64, error) {
	def, ok := exp.Get("E08")
	if !ok {
		return 0, fmt.Errorf("experiment E08 is not registered")
	}
	sp := b.rec.begin(noSpan, "exp.E08.Run", 0)
	res, err := def.Run(exp.Options{Duration: runner.QuickDuration("E08"), Quiet: true})
	b.rec.end(sp)
	if err != nil {
		return 0, fmt.Errorf("E08: %w", err)
	}
	relerr := res.Summary["worst_relerr"]
	b.op()
	if !(relerr <= closedFormTolerance) {
		b.fail("settled MACR is %.3f off C/(1+k*u), tolerance %.2f", relerr, closedFormTolerance)
	}
	return relerr, nil
}

func runATMChain(b *bench) error {
	w := chainWorkload(b, 1)
	reps, traced, err := runSim(b, w)
	if err != nil {
		return err
	}
	relerr, err := closedFormCheck(b)
	if err != nil {
		return err
	}
	if !b.tracing() {
		return nil
	}
	b.set("bench.closed_form_relerr", relerr, 0, "E08 quick worst_relerr")
	return chainLayers(b, w, reps, traced)
}

func runATMShard2(b *bench) error {
	w := chainWorkload(b, 2)
	reps, traced, err := runSim(b, w)
	if err != nil {
		return err
	}
	single, err := singleEngineCheck(b, w, reps[0])
	if err != nil {
		return err
	}
	if !b.tracing() {
		return nil
	}
	return shardLayers(b, w, reps, traced, single)
}

func runTCPTimers(b *bench) error {
	w := tcpWorkload(b)
	reps, traced, err := runSim(b, w)
	if err != nil {
		return err
	}
	if !b.tracing() {
		return nil
	}
	return tcpLayers(b, w, reps, traced)
}
