package scengen

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/runner"
	"repro/internal/simconfig"
)

// FrozenCase is one regression file's content.
type FrozenCase struct {
	Path string
	// Origin is the "family[index] seed=N" provenance line (may be empty
	// for hand-written cases).
	Origin string
	// ExpectViolations are the invariant names the scenario must trigger.
	ExpectViolations []string
	Spec             *simconfig.Spec
}

// RunCampaign generates and checks cfg.N scenarios for every family on a
// fleet of workers (0: GOMAXPROCS), deterministically.
func RunCampaign(cfg CampaignConfig, workers int) (*CampaignReport, error) {
	c, err := NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	results, _ := (&runner.Fleet{Workers: workers}).Run(c.Jobs())
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("scengen: %s: %w", r.Job.Name, r.Err)
		}
	}
	return c.Finish(), nil
}

// Finish compacts the findings into a deterministic report. Call it after
// the fleet has drained.
func (c *Campaign) Finish() *CampaignReport {
	rep := &CampaignReport{Scenarios: len(c.jobs)}
	for _, f := range c.slots {
		if f != nil {
			rep.Findings = append(rep.Findings, *f)
		}
	}
	return rep
}

// LoadFrozen reads every *.simconfig regression case under dir, sorted by
// path. A missing directory is an empty set, not an error.
func LoadFrozen(dir string) ([]FrozenCase, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.simconfig"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []FrozenCase
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		c := FrozenCase{Path: p}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if rest, ok := strings.CutPrefix(line, "# scengen regression:"); ok {
				c.Origin = strings.TrimSpace(rest)
			}
			if rest, ok := strings.CutPrefix(line, "# expect-violation:"); ok {
				c.ExpectViolations = append(c.ExpectViolations, strings.TrimSpace(rest))
			}
		}
		spec, err := simconfig.Parse(strings.NewReader(string(data)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		c.Spec = spec
		out = append(out, c)
	}
	return out, nil
}

// Replay runs a frozen case and reports the violation names that did NOT
// reproduce (empty: the regression still fires as recorded).
func Replay(c *FrozenCase) []string {
	o, err := RunSpec(c.Spec)
	if err != nil {
		return []string{fmt.Sprintf("run failed: %v", err)}
	}
	got := Check(o)
	var missing []string
	for _, want := range c.ExpectViolations {
		if !HoldsFor(got, want) {
			missing = append(missing, want)
		}
	}
	return missing
}
