package scenario_test

import (
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simconfig"
	"repro/internal/telemetry"
)

// TestEveryAlgorithmEndToEnd builds a 4-switch parking lot under each
// algorithm simconfig can name and runs it for 100 ms with telemetry on.
// Each algorithm must reach the sampler (a fair-share series on every used
// trunk, none without an algorithm) and its counters. The link peaks must
// agree with the telemetry gauge.
func TestEveryAlgorithmEndToEnd(t *testing.T) {
	const lot = `switches 4
trunkrate 150
trunk 1 50
trunkdelay 5us
session long 0 3 greedy
session left 0 1 greedy
session mid 1 2 greedy
session right 2 3 greedy
`
	for _, alg := range []string{"phantom", "phantom-ci", "eprca", "aprc", "capc", "erica", "exact", "none"} {
		t.Run(alg, func(t *testing.T) {
			spec, err := simconfig.Parse(strings.NewReader(lot + "alg " + alg + "\n"))
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.New()
			cfg := spec.Config
			cfg.Telemetry = reg
			n, err := scenario.BuildGraph(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n.Run(100 * sim.Millisecond)

			used := map[int]bool{}
			for _, links := range n.LinkPaths {
				for _, l := range links {
					used[l] = true
				}
			}
			peak := 0
			for l, fs := range n.FairShare {
				switch {
				case fs != nil && (alg == "none" || !used[l]):
					t.Errorf("link %d (used %v) has a fair-share series", l, used[l])
				case fs == nil && alg != "none" && used[l]:
					t.Errorf("used link %d has no fair-share series", l)
				case fs != nil && len(fs.Points()) == 0:
					t.Errorf("link %d's fair-share series is empty", l)
				}
				peak = max(peak, n.PeakLinkQueue(l))
			}
			t.Logf("peak queue %d cells", peak)
			snap := reg.Snapshot()
			if updates := snap["alg.fair_share_updates"]; (updates > 0) != (alg != "none") {
				t.Errorf("alg.fair_share_updates = %d", updates)
			}
			if gauge := snap["link.queue_cells_peak"]; uint64(peak) != gauge {
				t.Errorf("max PeakLinkQueue = %d, link.queue_cells_peak = %d", peak, gauge)
			}
		})
	}
}
