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
	ca, cb := &a.Config, &b.Config
	if ca.Nodes != cb.Nodes {
		return fmt.Sprintf("nodes %d vs %d", ca.Nodes, cb.Nodes)
	}
	if len(ca.Edges) != len(cb.Edges) {
		return fmt.Sprintf("%d edges vs %d", len(ca.Edges), len(cb.Edges))
	}
	for k := range ca.Edges {
		ea, eb := ca.Edges[k], cb.Edges[k]
		if ea.U != eb.U || ea.V != eb.V || ea.Delay != eb.Delay || !closeF(ea.RateBPS, eb.RateBPS, tol) {
			return fmt.Sprintf("edge %d: %+v vs %+v", k, ea, eb)
		}
	}
	if !closeF(ca.TrunkRateBPS, cb.TrunkRateBPS, tol) || ca.TrunkDelay != cb.TrunkDelay ||
		!closeF(ca.TrunkLossRate, cb.TrunkLossRate, tol) {
		return "trunk defaults differ"
	}
	if !closeF(ca.AccessRateBPS, cb.AccessRateBPS, tol) {
		return fmt.Sprintf("access rate %v vs %v", ca.AccessRateBPS, cb.AccessRateBPS)
	}
	if ca.Duration != cb.Duration {
		return fmt.Sprintf("sizing hint %v vs %v", ca.Duration, cb.Duration)
	}
	if ca.Shards != cb.Shards || !reflect.DeepEqual(ca.Partition, cb.Partition) {
		return fmt.Sprintf("shards %d %v vs %d %v", ca.Shards, ca.Partition, cb.Shards, cb.Partition)
	}
	if d := eventsDiff(ca.Events, cb.Events, tol); d != "" {
		return d
	}
	if len(ca.Sessions) != len(cb.Sessions) {
		return fmt.Sprintf("%d sessions vs %d", len(ca.Sessions), len(cb.Sessions))
	}
	for i := range ca.Sessions {
		sa, sb := ca.Sessions[i], cb.Sessions[i]
		if sa.Name != sb.Name || sa.Src != sb.Src || sa.Dst != sb.Dst {
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

// roundTrip checks Parse ∘ Emit is the identity on a parsed spec (to within
// tol on rates), that Emit writes only the canonical form, and that it is
// canonical (emitting the reparse is byte-identical). It returns the
// emitted text.
func roundTrip(t testing.TB, s1 *Spec, tol float64) string {
	t.Helper()
	text, err := Emit(s1)
	if err != nil {
		t.Fatalf("Emit failed on a parsed spec: %v", err)
	}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) > 0 && (f[0] == "switches" || f[0] == "trunk") {
			t.Fatalf("Emit wrote the %q shorthand:\n%s", f[0], text)
		}
	}
	s2, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("re-parse of emitted spec failed: %v\nemitted:\n%s", err, text)
	}
	if d := specDiff(s1, s2, tol); d != "" {
		t.Fatalf("round trip changed the spec: %s\nemitted:\n%s", d, text)
	}
	text2, err := Emit(s2)
	if err != nil {
		t.Fatalf("second emit: %v", err)
	}
	if text2 != text {
		t.Fatalf("emit not canonical:\n%s\nvs\n%s", text, text2)
	}
	return text
}

// TestEmitRoundTrip runs the round trip on every example spec (both
// spellings are among them) and on the shorthand's corner cases.
func TestEmitRoundTrip(t *testing.T) {
	for _, f := range exampleFiles(t) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Base(f), func(t *testing.T) { roundTrip(t, parseOK(t, string(data)), 0) })
	}
	for name, text := range map[string]string{
		"default switches":   "session a 0 1 greedy\n",
		"slow trunks":        "switches 2\ntrunkrate 50\nalg none\nsession a 0 1 greedy\n",
		"explicit access":    "switches 3\naccessrate 622\ntrunk 1 25\nsession a 0 2 greedy\n",
		"sharded shorthand":  "switches 4\nshards 2\npartition 0 0 1 1\ntrunkdelay 20us\nsession a 0 3 greedy\nat 1ms loss 2 0.1\n",
		"graph with access":  "nodes 3\nedge 0 1 rate=50\nedge 2 1\naccessrate 25\nsession a 2 0 greedy\n",
		"graph default rate": "nodes 2\nedge 0 1\nshards 2\nsession a 1 0 greedy\n",
	} {
		t.Run(name, func(t *testing.T) { roundTrip(t, parseOK(t, text), 0) })
	}
}

// TestSwitchesIsShorthand: the switches/trunk spelling parses to exactly
// the spec its hand-written nodes/edge/accessrate expansion parses to, and
// emits as that expansion.
func TestSwitchesIsShorthand(t *testing.T) {
	short := `switches 4
trunkrate 100
trunk 1 50
trunkdelay 10us
alg phantom u=5
shards 2
session long 0 3 greedy
session b 1 2 onoff 5ms 5ms
at 10ms rate 2 25
duration 50ms
`
	long := `nodes 4
edge 0 1
edge 1 2 rate=50
edge 2 3
trunkrate 100
trunkdelay 10µs
accessrate 150
alg phantom u=5
duration 50ms
shards 2
session long 0 3 greedy
session b 1 2 onoff 5ms 5ms
at 10ms rate 2 25
`
	if d := specDiff(parseOK(t, short), parseOK(t, long), 0); d != "" {
		t.Errorf("shorthand and expansion parse differently: %s", d)
	}
	if got := roundTrip(t, parseOK(t, short), 0); got != long {
		t.Errorf("shorthand emits as\n%s\nwant its expansion\n%s", got, long)
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
