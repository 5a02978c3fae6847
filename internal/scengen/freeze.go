package scengen

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/simconfig"
)

// A frozen regression file is an ordinary simconfig file — phantom-sim runs
// it directly — prefixed with comment headers recording where it came from
// and which invariant it must keep violating:
//
//	# scengen regression: transient[17] seed=12345
//	# expect-violation: queue-bound
//	switches 2
//	...
//
// The replay test re-runs every frozen file and fails if the expected
// violation stopped reproducing (the bug was fixed — delete the file) or
// the file no longer parses.

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

// FreezeText renders a finding as a regression file body. The minimized
// text is preferred when present; every violation the run triggered is
// recorded so the replay can check the full signature.
func FreezeText(f *Finding) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# scengen regression: %s[%d] seed=%d\n", f.Family, f.Index, f.Seed)
	names := map[string]bool{}
	for _, v := range f.Violations {
		if !names[v.Name] {
			names[v.Name] = true
			fmt.Fprintf(&b, "# expect-violation: %s\n", v.Name)
		}
	}
	text := f.Text
	if f.Minimized != "" {
		text = f.Minimized
		// The minimizer preserves only the first violation; re-freeze with
		// just that expectation.
		b.Reset()
		fmt.Fprintf(&b, "# scengen regression: %s[%d] seed=%d (minimized)\n", f.Family, f.Index, f.Seed)
		fmt.Fprintf(&b, "# expect-violation: %s\n", f.Violations[0].Name)
	}
	b.WriteString(text)
	return b.String()
}

// Freeze writes a finding into dir as <family>-<index>.simconfig and
// returns the path.
func Freeze(f *Finding, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-%d.simconfig", f.Family, f.Index)
	if f.Index < 0 {
		// Replays of a bare seed have no campaign index.
		name = fmt.Sprintf("%s-seed%d.simconfig", f.Family, f.Seed)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(FreezeText(f)), 0o644); err != nil {
		return "", err
	}
	return path, nil
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
