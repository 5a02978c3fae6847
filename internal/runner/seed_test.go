package runner

import (
	"fmt"
	"testing"

	"repro/internal/exp"
)

// TestDeriveSeedStable pins the derivation across process restarts and Go
// releases: these constants were recorded when the scheme was frozen, and
// golden files depend on them. If this test ever fails, the derivation
// changed — that is a breaking change to every recorded sweep, not a bug in
// the test.
func TestDeriveSeedStable(t *testing.T) {
	cases := []struct {
		id    string
		index int
		want  uint64
	}{
		{"E01", 0, deriveSeedReference("E01", 0)},
		{"E17", 3, deriveSeedReference("E17", 3)},
		{"A02", 7, deriveSeedReference("A02", 7)},
	}
	for _, c := range cases {
		if got := DeriveSeed(c.id, c.index); got != c.want {
			t.Errorf("DeriveSeed(%q, %d) = %#x, want %#x", c.id, c.index, got, c.want)
		}
		// A second call in the same process must agree too (no hidden state).
		if got := DeriveSeed(c.id, c.index); got != c.want {
			t.Errorf("DeriveSeed(%q, %d) unstable within process", c.id, c.index)
		}
	}
	// Frozen absolute values, independent of the implementation: recompute
	// by hand from the documented scheme (FNV-1a then one splitmix64 round).
	if got := DeriveSeed("E01", 0); got != 0x537b7b99e5dec54b {
		t.Errorf("DeriveSeed(E01, 0) = %#x, want %#x — the frozen derivation changed", got, uint64(0x537b7b99e5dec54b))
	}
}

// deriveSeedReference is an independent re-statement of the documented
// derivation, so an accidental edit to seed.go that changes outputs is
// caught even before the absolute pin above.
func deriveSeedReference(id string, index int) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 0x100000001b3
	}
	z := h + uint64(index)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0xcbf29ce484222325
	}
	return z
}

// TestDeriveSeedNoCollisions is the property test: distinct (ID, index)
// pairs never collide across every registered experiment and a wide index
// range, plus adversarial ID shapes (prefixes of each other, single chars).
func TestDeriveSeedNoCollisions(t *testing.T) {
	var ids []string
	exp.Walk(func(d exp.Definition) bool {
		ids = append(ids, d.ID)
		return true
	})
	// Adversarial shapes: IDs that are prefixes/suffixes of each other, so
	// an (id, index) ambiguity like ("E1",11) vs ("E11",1) would surface.
	ids = append(ids, "E", "E1", "E11", "E111", "1", "11", "A", "A0", "X99")
	uniq := make(map[string]bool, len(ids))
	deduped := ids[:0]
	for _, id := range ids {
		if !uniq[id] {
			uniq[id] = true
			deduped = append(deduped, id)
		}
	}
	ids = deduped

	const perID = 2048
	seen := make(map[uint64]string, len(ids)*perID)
	for _, id := range ids {
		for i := 0; i < perID; i++ {
			s := DeriveSeed(id, i)
			if s == 0 {
				t.Fatalf("DeriveSeed(%q, %d) = 0, the reserved sentinel", id, i)
			}
			key := fmt.Sprintf("%s/%d", id, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both derive %#x", prev, key, s)
			}
			seen[s] = key
		}
	}
}
