// Package workload provides deterministic random number generation and the
// source-activity patterns used by the experiments: greedy (always-on)
// sessions, windowed sessions that join and leave, and periodic or random
// on/off (bursty) sessions as in Fig. 4 of the paper.
//
// Determinism matters more than statistical sophistication here: a
// simulation must replay identically for a fixed seed across platforms and
// Go releases, so the package carries its own small PCG-style generator
// instead of depending on math/rand internals.
package workload

import "math"

// RNG is a deterministic 64-bit PCG-XSH-RR style generator. The zero value
// is not usable; construct with NewRNG.
type RNG struct {
	state uint64
	inc   uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce identical streams; distinct stream IDs can be derived by
// XORing the seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{inc: 0xda3e39cb94b95bdb | 1}
	r.state = seed + r.inc
	r.Uint64()
	return r
}

// Uint64 returns the next 64 bits of the stream.
func (r *RNG) Uint64() uint64 {
	// splitmix64 core: simple, fast, and fully specified by this file.
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}
