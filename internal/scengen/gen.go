// Package scengen generates, runs and checks randomized flow-control
// scenarios: a seeded generator draws topologies (parking-lot chains,
// fat trees, Waxman meshes), session populations (greedy, flash crowds,
// heavy-tailed web users) and transient schedules (rate cuts, loss onset)
// in the simconfig dialect; an invariant checker then tests every run for
// the properties the paper's algorithms must keep (cell conservation,
// bounded queues, no starvation, the max-min envelope); and a shrinking
// minimizer reduces a failing scenario to a small reproducer that can be
// frozen as a regression file.
//
// Everything is deterministic: Generate(family, seed) is a pure function,
// seeds derive from (family, index) exactly like runner.DeriveSeed derives
// fleet seeds, and campaign reports are bit-identical across worker counts.
package scengen

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/simconfig"
	"repro/internal/workload"
)

// Family names a scenario distribution.
type Family string

const (
	// ParkingLot draws linear chains with a long session crossing every
	// trunk plus per-hop cross traffic — the paper's GFC shape.
	ParkingLot Family = "parkinglot"
	// FatTree draws two-level trees: leaves under aggregation switches
	// under one core, with fatter uplinks, and leaf-to-leaf sessions.
	FatTree Family = "fattree"
	// Waxman draws WAN-like random meshes: a spanning tree for
	// connectivity plus distance-biased extra edges (Waxman's model).
	Waxman Family = "waxman"
	// FlashCrowd draws many windowed sessions joining in a burst over a
	// short linear network, all stopping before the run ends so cell
	// conservation is checkable.
	FlashCrowd Family = "flashcrowd"
	// WebMix draws a few greedy sessions against many random on/off web
	// users with heavy-tailed-ish phase means.
	WebMix Family = "webmix"
	// Transient draws small scenarios with mid-run rate cuts, restorations
	// and loss onset.
	Transient Family = "transient"
	// ShardedMesh draws large partition-annotated WAN meshes: a Waxman-like
	// topology with wide propagation delays (so the cut has real lookahead)
	// plus shards/partition directives, sized for the sharded runtime. Under
	// -crosscheck every draw is re-run single-engine and the data-plane
	// fingerprints diffed, fuzzing the sharded-vs-unsharded equality claim.
	ShardedMesh Family = "shardedmesh"
)

// Families lists every generator family in its canonical order.
func Families() []Family {
	return []Family{ParkingLot, FatTree, Waxman, FlashCrowd, WebMix, Transient, ShardedMesh}
}

// ParseFamily resolves a family name.
func ParseFamily(s string) (Family, error) {
	for _, f := range Families() {
		if string(f) == s {
			return f, nil
		}
	}
	return "", fmt.Errorf("scengen: unknown family %q (have %v)", s, Families())
}

// DeriveSeed maps (family, index) to the scenario seed, with the same
// frozen FNV-1a + splitmix64 derivation the fleet runner uses for
// experiment sweeps, keyed under "fuzz/<family>".
func DeriveSeed(f Family, index int) uint64 {
	return deriveSeed("fuzz/"+string(f), index)
}

// deriveSeed duplicates runner.DeriveSeed's frozen derivation; scengen
// repeats the five lines rather than importing the runner so the generator
// stays a leaf package the runner itself can depend on.
func deriveSeed(id string, index int) uint64 {
	const (
		fnvOffset64 = 0xcbf29ce484222325
		fnvPrime64  = 0x100000001b3
	)
	h := uint64(fnvOffset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime64
	}
	z := h + uint64(index)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = fnvOffset64
	}
	return z
}

// Generate draws one scenario from the family's distribution. The result
// is the canonical simconfig text and its parsed spec; Generate(f, seed)
// is a pure function of its arguments.
func Generate(f Family, seed uint64) (*simconfig.Spec, string, error) {
	rng := workload.NewRNG(seed)
	var text string
	switch f {
	case ParkingLot:
		text = genParkingLot(rng)
	case FatTree:
		text = genFatTree(rng)
	case Waxman:
		text = genWaxman(rng)
	case FlashCrowd:
		text = genFlashCrowd(rng)
	case WebMix:
		text = genWebMix(rng)
	case Transient:
		text = genTransient(rng)
	case ShardedMesh:
		text = genShardedMesh(rng)
	default:
		return nil, "", fmt.Errorf("scengen: unknown family %q", f)
	}
	spec, err := simconfig.Parse(strings.NewReader(text))
	if err != nil {
		return nil, "", fmt.Errorf("scengen: %s generator emitted an invalid spec: %v\n%s", f, err, text)
	}
	canonical, err := simconfig.Emit(spec)
	if err != nil {
		return nil, "", fmt.Errorf("scengen: %s spec does not re-emit: %v", f, err)
	}
	return spec, canonical, nil
}

// rates the generators draw trunk capacities from (Mb/s): the paper's
// 150 Mb/s line plus slower WAN-ish tiers.
var trunkRates = []int{150, 100, 50, 25}

// durMS formats a millisecond count as a duration literal.
func durMS(ms int) string { return fmt.Sprintf("%dms", ms) }

// pattern draws a session pattern for a durMSTotal-millisecond run.
func pattern(rng *workload.RNG, durMSTotal int) string {
	switch rng.Intn(4) {
	case 0:
		return "greedy"
	case 1:
		on := 5 + rng.Intn(45)
		off := 5 + rng.Intn(45)
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("onoff %s %s %s", durMS(on), durMS(off), durMS(rng.Intn(50)))
		}
		return fmt.Sprintf("onoff %s %s", durMS(on), durMS(off))
	case 2:
		start := rng.Intn(durMSTotal / 2)
		stop := start + 20 + rng.Intn(durMSTotal-start-20)
		return fmt.Sprintf("window %s %s", durMS(start), durMS(stop))
	default:
		meanOn := 2 + rng.Intn(30)
		meanOff := 2 + rng.Intn(60)
		return fmt.Sprintf("randonoff %s %s %d", durMS(meanOn), durMS(meanOff), rng.Uint64()%1e9)
	}
}

func genParkingLot(rng *workload.RNG) string {
	var b strings.Builder
	switches := 3 + rng.Intn(6) // 3..8
	dur := 150 + 50*rng.Intn(4) // 150..300ms
	fmt.Fprintf(&b, "switches %d\n", switches)
	fmt.Fprintf(&b, "trunkrate %d\n", trunkRates[rng.Intn(2)])
	// A narrow trunk somewhere in the middle makes the beat-down shape.
	if switches > 2 && rng.Intn(2) == 0 {
		fmt.Fprintf(&b, "trunk %d %d\n", 1+rng.Intn(switches-2), trunkRates[2+rng.Intn(2)])
	}
	fmt.Fprintf(&b, "trunkdelay %dus\n", 1+rng.Intn(50))
	b.WriteString("alg phantom u=5\n")
	fmt.Fprintf(&b, "session long 0 %d greedy\n", switches-1)
	n := 1 + rng.Intn(2*switches)
	for i := 0; i < n; i++ {
		entry := rng.Intn(switches - 1)
		exit := entry + 1 + rng.Intn(switches-entry-1)
		fmt.Fprintf(&b, "session s%d %d %d %s\n", i, entry, exit, pattern(rng, dur))
	}
	fmt.Fprintf(&b, "duration %s\n", durMS(dur))
	return b.String()
}

func genFatTree(rng *workload.RNG) string {
	var b strings.Builder
	aggs := 2 + rng.Intn(2)      // aggregation switches
	leavesPer := 1 + rng.Intn(2) // leaves per aggregation
	dur := 150 + 50*rng.Intn(3)  // 150..250ms
	core := 0
	nodes := 1 + aggs + aggs*leavesPer
	fmt.Fprintf(&b, "nodes %d\n", nodes)
	leafRate := trunkRates[2+rng.Intn(2)] // thin leaf links
	coreRate := trunkRates[rng.Intn(2)]   // fat uplinks
	var leaves []int
	next := 1
	for a := 0; a < aggs; a++ {
		agg := next
		next++
		fmt.Fprintf(&b, "edge %d %d rate=%d\n", core, agg, coreRate)
		for l := 0; l < leavesPer; l++ {
			leaf := next
			next++
			fmt.Fprintf(&b, "edge %d %d rate=%d\n", agg, leaf, leafRate)
			leaves = append(leaves, leaf)
		}
	}
	b.WriteString("alg phantom u=5\n")
	n := 2 + rng.Intn(2*len(leaves))
	for i := 0; i < n; i++ {
		src := leaves[rng.Intn(len(leaves))]
		dst := leaves[rng.Intn(len(leaves))]
		if src == dst {
			dst = core // leaf-to-core when the draw collides
		}
		fmt.Fprintf(&b, "session s%d %d %d %s\n", i, src, dst, pattern(rng, dur))
	}
	fmt.Fprintf(&b, "duration %s\n", durMS(dur))
	return b.String()
}

func genWaxman(rng *workload.RNG) string {
	var b strings.Builder
	nodes := 4 + rng.Intn(6) // 4..9
	dur := 150 + 50*rng.Intn(3)
	fmt.Fprintf(&b, "nodes %d\n", nodes)
	// Random points in the unit square; a spanning tree guarantees
	// connectivity, then Waxman's P(u,v) = a·exp(−d/(b·L)) adds shortcuts.
	xs := make([]float64, nodes)
	ys := make([]float64, nodes)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	dist := func(u, v int) float64 {
		dx, dy := xs[u]-xs[v], ys[u]-ys[v]
		return dx*dx + dy*dy // squared; only relative scale matters
	}
	type edge struct{ u, v int }
	var edges []edge
	have := map[edge]bool{}
	addEdge := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		e := edge{u, v}
		if u != v && !have[e] {
			have[e] = true
			edges = append(edges, e)
		}
	}
	for v := 1; v < nodes; v++ {
		addEdge(rng.Intn(v), v)
	}
	const alpha, beta = 0.6, 0.5
	for u := 0; u < nodes; u++ {
		for v := u + 1; v < nodes; v++ {
			if rng.Float64() < alpha*expNeg(dist(u, v)/(beta*2)) {
				addEdge(u, v)
			}
		}
	}
	for _, e := range edges {
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, "edge %d %d rate=%d delay=%dus\n", e.u, e.v, trunkRates[rng.Intn(len(trunkRates))], 1+rng.Intn(100))
		} else {
			fmt.Fprintf(&b, "edge %d %d\n", e.u, e.v)
		}
	}
	fmt.Fprintf(&b, "trunkrate %d\n", trunkRates[rng.Intn(2)])
	b.WriteString("alg phantom u=5\n")
	n := 2 + rng.Intn(8)
	for i := 0; i < n; i++ {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes)
		if src == dst {
			dst = (dst + 1) % nodes
		}
		fmt.Fprintf(&b, "session s%d %d %d %s\n", i, src, dst, pattern(rng, dur))
	}
	fmt.Fprintf(&b, "duration %s\n", durMS(dur))
	return b.String()
}

func genFlashCrowd(rng *workload.RNG) string {
	var b strings.Builder
	switches := 2 + rng.Intn(3) // 2..4
	dur := 300 + 50*rng.Intn(3) // 300..400ms
	fmt.Fprintf(&b, "switches %d\n", switches)
	fmt.Fprintf(&b, "trunkrate %d\n", trunkRates[rng.Intn(2)])
	b.WriteString("alg phantom u=5\n")
	// The crowd joins within a tight window and everyone leaves at least
	// 150 ms before the end, so conservation and drain are checkable.
	flashAt := 20 + rng.Intn(50)
	leaveBy := dur - 150
	n := 8 + rng.Intn(24)
	for i := 0; i < n; i++ {
		start := flashAt + rng.Intn(20)
		stop := start + 20 + rng.Intn(leaveBy-start-20)
		entry := rng.Intn(switches - 1)
		exit := entry + 1 + rng.Intn(switches-entry-1)
		fmt.Fprintf(&b, "session c%d %d %d window %s %s\n", i, entry, exit, durMS(start), durMS(stop))
	}
	// One background session that also stops, keeping the all-stop shape.
	fmt.Fprintf(&b, "session bg 0 %d window 0ms %s\n", switches-1, durMS(leaveBy))
	fmt.Fprintf(&b, "duration %s\n", durMS(dur))
	return b.String()
}

func genWebMix(rng *workload.RNG) string {
	var b strings.Builder
	switches := 2 + rng.Intn(2)
	dur := 200 + 50*rng.Intn(4)
	fmt.Fprintf(&b, "switches %d\n", switches)
	fmt.Fprintf(&b, "trunkrate %d\n", trunkRates[rng.Intn(3)])
	b.WriteString("alg phantom u=5\n")
	greedy := 1 + rng.Intn(2)
	for i := 0; i < greedy; i++ {
		fmt.Fprintf(&b, "session bulk%d 0 %d greedy\n", i, switches-1)
	}
	users := 4 + rng.Intn(16)
	for i := 0; i < users; i++ {
		// Heavy-tailed-ish: a few long-mean users dominate the on time.
		meanOn := 2 + rng.Intn(8)
		if rng.Intn(4) == 0 {
			meanOn = 20 + rng.Intn(60)
		}
		meanOff := 10 + rng.Intn(90)
		entry := rng.Intn(switches - 1)
		exit := entry + 1 + rng.Intn(switches-entry-1)
		fmt.Fprintf(&b, "session w%d %d %d randonoff %s %s %d\n",
			i, entry, exit, durMS(meanOn), durMS(meanOff), rng.Uint64()%1e9)
	}
	fmt.Fprintf(&b, "duration %s\n", durMS(dur))
	return b.String()
}

func genTransient(rng *workload.RNG) string {
	var b strings.Builder
	switches := 2 + rng.Intn(2)
	dur := 250 + 50*rng.Intn(4)
	fmt.Fprintf(&b, "switches %d\n", switches)
	base := trunkRates[rng.Intn(2)]
	fmt.Fprintf(&b, "trunkrate %d\n", base)
	b.WriteString("alg phantom u=5\n")
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		entry := rng.Intn(switches - 1)
		exit := entry + 1 + rng.Intn(switches-entry-1)
		fmt.Fprintf(&b, "session s%d %d %d greedy\n", i, entry, exit)
	}
	events := 1 + rng.Intn(3)
	at := 0
	for i := 0; i < events; i++ {
		at += 40 + rng.Intn(dur/3)
		trunk := rng.Intn(switches - 1)
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&b, "at %s loss %d 0.00%d\n", durMS(at), trunk, 1+rng.Intn(9))
		} else {
			// Cut to a fraction of the base rate, or restore to base.
			cut := base / (2 + rng.Intn(4))
			if rng.Intn(3) == 0 {
				cut = base
			}
			fmt.Fprintf(&b, "at %s rate %d %d\n", durMS(at), trunk, cut)
		}
	}
	fmt.Fprintf(&b, "duration %s\n", durMS(dur))
	return b.String()
}

// genShardedMesh draws the sharded-runtime stress shape: a larger Waxman
// mesh whose every edge carries a WAN-scale delay (hundreds of µs), so any
// cut yields a lookahead window worth thousands of cell times, annotated
// with a shards directive and — half the time — an explicit partition.
func genShardedMesh(rng *workload.RNG) string {
	var b strings.Builder
	nodes := 10 + rng.Intn(11) // 10..20
	dur := 150 + 50*rng.Intn(3)
	shards := 2 + rng.Intn(3) // 2..4
	fmt.Fprintf(&b, "nodes %d\n", nodes)
	type edge struct{ u, v int }
	var edges []edge
	have := map[edge]bool{}
	addEdge := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		e := edge{u, v}
		if u != v && !have[e] {
			have[e] = true
			edges = append(edges, e)
		}
	}
	for v := 1; v < nodes; v++ {
		addEdge(rng.Intn(v), v)
	}
	extra := nodes / 3
	for i := 0; i < extra; i++ {
		addEdge(rng.Intn(nodes), rng.Intn(nodes))
	}
	for _, e := range edges {
		// WAN-scale propagation: 200µs..1ms keeps every possible cut's
		// lookahead ≥ ~70 cell times at 150 Mb/s.
		fmt.Fprintf(&b, "edge %d %d rate=%d delay=%dus\n",
			e.u, e.v, trunkRates[rng.Intn(len(trunkRates))], 200+100*rng.Intn(9))
	}
	b.WriteString("alg phantom u=5\n")
	fmt.Fprintf(&b, "shards %d\n", shards)
	if rng.Intn(2) == 0 {
		// Explicit contiguous partition; otherwise the auto partitioner runs.
		b.WriteString("partition")
		for i := 0; i < nodes; i++ {
			fmt.Fprintf(&b, " %d", i*shards/nodes)
		}
		b.WriteByte('\n')
	}
	n := 4 + rng.Intn(8)
	for i := 0; i < n; i++ {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes)
		if src == dst {
			dst = (dst + 1) % nodes
		}
		fmt.Fprintf(&b, "session s%d %d %d %s\n", i, src, dst, pattern(rng, dur))
	}
	fmt.Fprintf(&b, "duration %s\n", durMS(dur))
	return b.String()
}

func expNeg(x float64) float64 { return math.Exp(-x) }
