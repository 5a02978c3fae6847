package repro

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/scengen"
)

// TestShardedGoldenEquality is the end-to-end determinism acceptance test
// for sharded simulation: E01 (linear parking lot) and E06 (utilization
// sweep) run split across 2 and 4 engines must reproduce the single-engine
// summary exactly — not within tolerance, bit-identical — and must also sit
// inside the committed golden snapshots under the suite-wide tolerance.
func TestShardedGoldenEquality(t *testing.T) {
	exact := runner.Tolerance{} // zero Default: bit-identical
	for _, id := range []string{"E01", "E06"} {
		def, ok := exp.Get(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		golden, err := runner.ReadSnapshot("testdata/golden", id)
		if err != nil {
			t.Fatalf("%s golden: %v", id, err)
		}
		d := golden.Duration()
		single, err := exp.Execute(def, exp.Options{Quiet: true, Duration: d, Seed: golden.Seed}, nil)
		if err != nil {
			t.Fatalf("%s single-engine: %v", id, err)
		}
		for _, shards := range []int{2, 4} {
			res, err := exp.Execute(def, exp.Options{Quiet: true, Duration: d, Seed: golden.Seed, Shards: shards}, nil)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", id, shards, err)
			}
			snap := runner.SnapResult(res, d)
			for _, dr := range runner.Compare(snap, runner.SnapResult(single, d), exact) {
				t.Errorf("%s shards=%d vs single engine: %s", id, shards, dr)
			}
			for _, dr := range runner.Compare(snap, golden, runner.DefaultTolerance()) {
				t.Errorf("%s shards=%d vs golden snapshot: %s", id, shards, dr)
			}
		}
	}
}

// TestShardedRunToRunIdentity pins the reproducibility half of the contract
// on a generated multi-shard mesh: at a fixed shard count the full
// fingerprint (fired-event count included) is byte-identical run-to-run,
// and the data fingerprint matches the same scenario run on one engine —
// both of which scengen.CrossCheck reports as violations.
func TestShardedRunToRunIdentity(t *testing.T) {
	spec, text, err := scengen.Generate(scengen.ShardedMesh, 12345)
	if err != nil {
		t.Fatal(err)
	}
	a, err := scengen.RunSpec(spec)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if a.Shards < 2 {
		t.Fatalf("shardedmesh generator produced %d shards, want ≥ 2", a.Shards)
	}
	violations, err := scengen.CrossCheck(spec, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}
