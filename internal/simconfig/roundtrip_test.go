package simconfig

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// closeF reports a ≈ b within relative tolerance tol (tol 0 = exact).
func closeF(a, b, tol float64) bool {
	if a == b {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*m
}

// specDiff returns a description of the first difference between two parsed
// specs, or "" when they are equivalent. Algorithm factories are compared
// by (AlgName, AlgU) — functions have no identity — and float fields by
// relative tolerance tol, since rates round-trip through an Mb/s literal.
func specDiff(a, b *Spec, tol float64) string {
	if a.Duration != b.Duration {
		return fmt.Sprintf("duration %v vs %v", a.Duration, b.Duration)
	}
	if a.AlgName != b.AlgName || !closeF(a.AlgU, b.AlgU, tol) {
		return fmt.Sprintf("alg %s u=%v vs %s u=%v", a.AlgName, a.AlgU, b.AlgName, b.AlgU)
	}
	if (a.Graph == nil) != (b.Graph == nil) {
		return "one spec is graph, the other linear"
	}
	if a.Graph != nil {
		ga, gb := a.Graph, b.Graph
		if ga.Nodes != gb.Nodes {
			return fmt.Sprintf("nodes %d vs %d", ga.Nodes, gb.Nodes)
		}
		if len(ga.Edges) != len(gb.Edges) {
			return fmt.Sprintf("%d edges vs %d", len(ga.Edges), len(gb.Edges))
		}
		for k := range ga.Edges {
			ea, eb := ga.Edges[k], gb.Edges[k]
			if ea.U != eb.U || ea.V != eb.V || ea.Delay != eb.Delay || !closeF(ea.RateBPS, eb.RateBPS, tol) {
				return fmt.Sprintf("edge %d: %+v vs %+v", k, ea, eb)
			}
		}
		if !closeF(ga.TrunkRateBPS, gb.TrunkRateBPS, tol) || ga.TrunkDelay != gb.TrunkDelay ||
			!closeF(ga.TrunkLossRate, gb.TrunkLossRate, tol) {
			return "graph trunk defaults differ"
		}
		if d := eventsDiff(ga.Events, gb.Events, tol); d != "" {
			return d
		}
		if len(ga.Sessions) != len(gb.Sessions) {
			return fmt.Sprintf("%d sessions vs %d", len(ga.Sessions), len(gb.Sessions))
		}
		for i := range ga.Sessions {
			sa, sb := ga.Sessions[i], gb.Sessions[i]
			if sa.Name != sb.Name || sa.Src != sb.Src || sa.Dst != sb.Dst {
				return fmt.Sprintf("session %d header differs", i)
			}
			if !reflect.DeepEqual(sa.Pattern, sb.Pattern) {
				return fmt.Sprintf("session %q pattern %#v vs %#v", sa.Name, sa.Pattern, sb.Pattern)
			}
		}
		return ""
	}
	ca, cb := &a.Config, &b.Config
	if ca.Switches != cb.Switches {
		return fmt.Sprintf("switches %d vs %d", ca.Switches, cb.Switches)
	}
	if !closeF(ca.TrunkRateBPS, cb.TrunkRateBPS, tol) || ca.TrunkDelay != cb.TrunkDelay ||
		!closeF(ca.TrunkLossRate, cb.TrunkLossRate, tol) {
		return "trunk defaults differ"
	}
	if len(ca.TrunkRatesBPS) != len(cb.TrunkRatesBPS) {
		return fmt.Sprintf("%d trunk overrides vs %d", len(ca.TrunkRatesBPS), len(cb.TrunkRatesBPS))
	}
	for k := range ca.TrunkRatesBPS {
		if !closeF(ca.TrunkRatesBPS[k], cb.TrunkRatesBPS[k], tol) {
			return fmt.Sprintf("trunk %d override %v vs %v", k, ca.TrunkRatesBPS[k], cb.TrunkRatesBPS[k])
		}
	}
	if d := eventsDiff(ca.Events, cb.Events, tol); d != "" {
		return d
	}
	if len(ca.Sessions) != len(cb.Sessions) {
		return fmt.Sprintf("%d sessions vs %d", len(ca.Sessions), len(cb.Sessions))
	}
	for i := range ca.Sessions {
		sa, sb := ca.Sessions[i], cb.Sessions[i]
		if sa.Name != sb.Name || sa.Entry != sb.Entry || sa.Exit != sb.Exit {
			return fmt.Sprintf("session %d header differs", i)
		}
		if !reflect.DeepEqual(sa.Pattern, sb.Pattern) {
			return fmt.Sprintf("session %q pattern %#v vs %#v", sa.Name, sa.Pattern, sb.Pattern)
		}
	}
	return ""
}

func eventsDiff(a, b []scenario.TransientEvent, tol float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d events vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Kind != b[i].Kind || a[i].Index != b[i].Index ||
			!closeF(a[i].Value, b[i].Value, tol) {
			return fmt.Sprintf("event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return ""
}

func exampleFiles(t testing.TB) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "simconfig", "*.simconfig"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example simconfig files found: %v", err)
	}
	return files
}

// TestEmitRoundTrip checks Parse ∘ Emit ∘ Parse is the identity on every
// example spec, and that Emit is canonical (emitting the reparse is
// byte-identical).
func TestEmitRoundTrip(t *testing.T) {
	for _, f := range exampleFiles(t) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		s1, err := Parse(strings.NewReader(string(data)))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		text, err := Emit(s1)
		if err != nil {
			t.Fatalf("%s: emit: %v", f, err)
		}
		s2, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: re-parse of emitted spec: %v\n%s", f, err, text)
		}
		if d := specDiff(s1, s2, 0); d != "" {
			t.Errorf("%s: round trip changed the spec: %s\n%s", f, d, text)
		}
		text2, err := Emit(s2)
		if err != nil {
			t.Fatalf("%s: second emit: %v", f, err)
		}
		if text2 != text {
			t.Errorf("%s: emit not canonical:\n%s\nvs\n%s", f, text, text2)
		}
	}
}

// TestEmitRandonoffDependsOnDuration pins the subtle coupling: a randonoff
// schedule is generated over the spec duration, so the same session line
// under a different duration is a different pattern — and the emitter must
// preserve duration for the round trip to hold.
func TestEmitRandonoffDependsOnDuration(t *testing.T) {
	text := func(d string) string {
		return "session w 0 1 randonoff 5ms 10ms 9 2ms\nduration " + d + "\n"
	}
	s1 := parseOK(t, text("100ms"))
	s2 := parseOK(t, text("200ms"))
	p1 := s1.Config.Sessions[0].Pattern.(*workload.RandomOnOff)
	p2 := s2.Config.Sessions[0].Pattern.(*workload.RandomOnOff)
	if p1.Seed != 9 || p1.MeanOn != 5*sim.Millisecond || p1.MeanOff != 10*sim.Millisecond ||
		p1.Start != sim.Time(2*sim.Millisecond) {
		t.Fatalf("randonoff params not retained: %+v", p1)
	}
	if reflect.DeepEqual(p1, p2) {
		t.Fatal("schedules under different horizons should differ")
	}
	out, err := Emit(s1)
	if err != nil {
		t.Fatal(err)
	}
	s3 := parseOK(t, out)
	if d := specDiff(s1, s3, 0); d != "" {
		t.Fatalf("randonoff round trip: %s", d)
	}
}

// TestEmitUnrepresentable checks Emit refuses patterns outside the
// language instead of silently dropping them.
func TestEmitUnrepresentable(t *testing.T) {
	spec := parseOK(t, "session a 0 1 greedy\n")
	spec.Config.Sessions[0].Pattern = customPattern{}
	if _, err := Emit(spec); err == nil {
		t.Fatal("emitted a spec with an unrepresentable pattern")
	}
}

type customPattern struct{}

func (customPattern) ActiveAt(sim.Time) bool               { return true }
func (customPattern) NextChange(sim.Time) (sim.Time, bool) { return 0, false }
