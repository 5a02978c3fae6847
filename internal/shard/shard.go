// Package shard partitions one topology across several engines and runs
// them under a conservative parallel-discrete-event protocol (DESIGN.md
// §14). A Partition maps every node (switch) of the topology to a shard;
// each shard owns a private sim.Engine (its own sealed scheduler and event
// pool), every component of the node set assigned to it, and both access
// links of every session terminating there. Links whose endpoints land in
// different shards are the cut: their propagation delay becomes the
// protocol's lookahead, and the cells crossing them flow through Conduits
// drained at epoch barriers by the Group.
//
// The synchronization scheme is the epoch barrier (rather than per-channel
// CMB null messages): all engines run the same window (T, T+W] in
// parallel, where W is the minimum propagation delay over every cut link,
// then rendezvous while the goroutine that called Advance — which also
// runs shard 0 — moves buffered cells between shards. A cell transmitted
// at t ∈ (T, T+W] arrives at t+D ≥ t+W > T+W, so barrier-time injections
// are always strictly in the destination engine's future — no engine ever
// sees an event in its past. The barrier was chosen over null messages
// because the topology here is dense (every shard pair typically shares
// cut links, so per-channel lookahead ≈ global lookahead), the uniform
// window keeps the run deterministic with a single drain order, and the
// rendezvous — two atomic words, spun on briefly before a waiter parks —
// doubles as the memory barrier that lets live rings cross goroutines with
// no locks at all.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Edge is one full-duplex topology edge as the partitioner sees it: the
// two incident nodes, its propagation delay (the lookahead contribution if
// cut), and a display name for errors.
type Edge struct {
	U, V  int
	Delay sim.Duration
	Name  string
}

// Partition assigns every node to a shard. Node[i] is node i's shard, in
// [0, Shards).
type Partition struct {
	Shards int
	Node   []int
}

// Validate checks the assignment's shape: every node mapped, every shard
// id in range.
func (p Partition) Validate(nodes int) error {
	if p.Shards < 1 {
		return fmt.Errorf("shard: %d shards", p.Shards)
	}
	if len(p.Node) != nodes {
		return fmt.Errorf("shard: partition covers %d of %d nodes", len(p.Node), nodes)
	}
	for i, s := range p.Node {
		if s < 0 || s >= p.Shards {
			return fmt.Errorf("shard: node %d assigned to shard %d of %d", i, s, p.Shards)
		}
	}
	return nil
}

// Cut reports whether edge (u, v) crosses shards.
func (p Partition) Cut(u, v int) bool { return p.Node[u] != p.Node[v] }

// Lookahead returns the conservative window: the minimum propagation delay
// over every cut edge. A cut edge with a non-positive delay is an error —
// zero delay means zero lookahead, and the protocol could never advance —
// naming the offending link. A partition with no cut edges (all nodes on
// one shard, or a disconnected placement) returns 0: the caller runs
// windows bounded only by the requested horizon.
func (p Partition) Lookahead(edges []Edge) (sim.Duration, error) {
	var w sim.Duration
	for i, ed := range edges {
		if !p.Cut(ed.U, ed.V) {
			continue
		}
		if ed.Delay <= 0 {
			name := ed.Name
			if name == "" {
				name = fmt.Sprintf("edge %d", i)
			}
			return 0, fmt.Errorf("shard: cut link %s (%d–%d) has delay %v; zero-delay cut edges give zero lookahead — assign both endpoints to one shard or give the link a propagation delay",
				name, ed.U, ed.V, ed.Delay)
		}
		if w == 0 || ed.Delay < w {
			w = ed.Delay
		}
	}
	return w, nil
}

// Linear splits a chain of nodes into contiguous, balanced ranges — the
// natural partition for the parking-lot topologies, where every trunk k
// joins nodes k and k+1. shards is clamped to [1, nodes].
func Linear(nodes, shards int) Partition {
	if shards > nodes {
		shards = nodes
	}
	if shards < 1 {
		shards = 1
	}
	p := Partition{Shards: shards, Node: make([]int, nodes)}
	for i := 0; i < nodes; i++ {
		// Balanced blocks: the first nodes%shards blocks get one extra node.
		p.Node[i] = i * shards / nodes
	}
	return p
}

// Auto greedily partitions an arbitrary topology, min-cut-ish over link
// delays: Kruskal-style, it merges nodes across the lowest-delay edges
// first (capping cluster size at ceil(nodes/shards) so one shard cannot
// swallow the network), leaving only the highest-delay edges cut — those
// are exactly the ones that maximize the protocol's lookahead window.
// Remaining clusters are then packed onto shards largest-first. The result
// is deterministic: ties break on edge declaration order, and cluster ids
// are renumbered by lowest member node. shards is clamped to [1, nodes].
func Auto(nodes int, edges []Edge, shards int) Partition {
	if shards > nodes {
		shards = nodes
	}
	if shards <= 1 || nodes < 1 {
		return Partition{Shards: 1, Node: make([]int, nodes)}
	}

	order := make([]int, len(edges))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return edges[order[a]].Delay < edges[order[b]].Delay
	})

	parent := make([]int, nodes)
	size := make([]int, nodes)
	for i := range parent {
		parent[i], size[i] = i, 1
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	sizeCap := (nodes + shards - 1) / shards
	clusters := nodes
	// Two passes: first respect the balance cap, then (if the topology's
	// shape left too many clusters) ignore it — correctness needs exactly
	// ≤ shards shards only in the packing step below, but fewer, larger
	// clusters cut fewer low-delay edges.
	for pass := 0; pass < 2 && clusters > shards; pass++ {
		for _, k := range order {
			if clusters <= shards {
				break
			}
			ru, rv := find(edges[k].U), find(edges[k].V)
			if ru == rv {
				continue
			}
			if pass == 0 && size[ru]+size[rv] > sizeCap {
				continue
			}
			if size[ru] < size[rv] {
				ru, rv = rv, ru
			}
			parent[rv] = ru
			size[ru] += size[rv]
			clusters--
		}
	}

	// Renumber cluster roots by their lowest member node for determinism.
	rootID := make(map[int]int, clusters)
	var roots []int
	for i := 0; i < nodes; i++ {
		r := find(i)
		if _, ok := rootID[r]; !ok {
			rootID[r] = len(roots)
			roots = append(roots, r)
		}
	}
	// Pack clusters onto shards: largest first, each onto the currently
	// lightest shard (ties to the lowest shard id).
	bySize := make([]int, len(roots))
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool {
		return size[roots[bySize[a]]] > size[roots[bySize[b]]]
	})
	load := make([]int, shards)
	clusterShard := make([]int, len(roots))
	for _, c := range bySize {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		clusterShard[c] = best
		load[best] += size[roots[c]]
	}

	p := Partition{Shards: shards, Node: make([]int, nodes)}
	for i := 0; i < nodes; i++ {
		p.Node[i] = clusterShard[rootID[find(i)]]
	}
	return p
}
