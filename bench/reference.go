package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// reference.json pins what the workloads must produce at the default seed
// and full scale: a hash of each simulation workload's rep fingerprint, and
// the row/block counts of the daemon workloads. It is compiled in so the
// check does not depend on the working directory; -update-reference
// rewrites the file in the source tree.
//
//go:embed reference.json
var referenceJSON []byte

// referenceEntry is one workload's pinned outcome.
type referenceEntry struct {
	// Fingerprint is the SHA-256 of the rep fingerprint text (events fired,
	// per-session deliveries, per-trunk utilisation and final MACR bits,
	// retransmits/timeouts); Events is its headline figure, readable.
	Fingerprint string `json:"fingerprint,omitempty"`
	Events      int64  `json:"events_fired,omitempty"`
	// Counts are the daemon workloads' expected row and block counts.
	Counts map[string]int64 `json:"counts,omitempty"`
}

type referenceFile struct {
	Seed      uint64                    `json:"seed"`
	Workloads map[string]referenceEntry `json:"workloads"`
}

func hashText(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// checkReference holds the run to reference.json. Only the default seed at
// full scale has a reference; any other run relies on the workload's own
// checks (rep-to-rep identity, sharded against single-engine, row counts
// against the sizes the benchmark itself generated).
func (b *bench) checkReference() {
	if b.seed != defaultSeed || b.scale != 1 {
		return
	}
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		b.op()
		b.fail("reference.json: %v", err)
		return
	}
	want, ok := ref.Workloads[b.workload]
	if !ok || ref.Seed != defaultSeed {
		return
	}
	b.op()
	if want.Fingerprint != "" && want.Fingerprint != hashText(b.fingerprint) {
		b.fail("fingerprint differs from reference.json (want %s, got %s):\n%s", want.Fingerprint, hashText(b.fingerprint), b.fingerprint)
		return
	}
	for k, v := range want.Counts {
		if got, ok := b.counts[k]; !ok || got != v {
			b.fail("count %s = %d, reference.json says %d", k, got, v)
			return
		}
	}
}

// updateReference runs every workload once at the default seed, in a fresh
// process each, and rewrites reference.json from what they produced.
func updateReference(seconds float64) error {
	ref := referenceFile{Seed: defaultSeed, Workloads: map[string]referenceEntry{}}
	for _, w := range workloads {
		res, err := runChild(w.Name, defaultSeed, seconds, 1, false)
		if err != nil {
			return err
		}
		// A stale reference is the expected failure here; anything else
		// (reps that differ, sharded != single-engine, wrong row counts)
		// must not be frozen into the new one.
		if res.Failed > res.StaleReference {
			return fmt.Errorf("%s: %d operations failed for reasons other than a stale reference; reference.json left as it was", w.Name, res.Failed-res.StaleReference)
		}
		e := referenceEntry{Counts: res.Counts}
		if res.Fingerprint != "" {
			e.Fingerprint = hashText(res.Fingerprint)
			e.Events = res.Counts["events_fired"]
			e.Counts = nil
		}
		ref.Workloads[w.Name] = e
	}
	path := "bench/reference.json"
	if _, err := os.Stat("bench"); err != nil {
		path = "reference.json" // run from inside bench/
	}
	if err := writeJSON(path, ref); err != nil {
		return err
	}
	fmt.Printf("wrote %s; rebuild to compile it in\n", path)
	return nil
}
