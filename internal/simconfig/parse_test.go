package simconfig

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

func parseOK(t testing.TB, text string) *Spec {
	t.Helper()
	spec, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return spec
}

func TestParseMinimal(t *testing.T) {
	spec := parseOK(t, `
session a 0 1 greedy
`)
	if g := spec.Config; g.Nodes != 2 || len(g.Edges) != 1 || g.Edges[0] != (scenario.GraphEdge{U: 0, V: 1}) {
		t.Fatalf("default topology = %d nodes, edges %+v; want the two-switch chain", g.Nodes, g.Edges)
	}
	if spec.Config.AccessRateBPS != 150e6 {
		t.Fatalf("shorthand access rate = %v, want the explicit 150 Mb/s", spec.Config.AccessRateBPS)
	}
	if len(spec.Config.Sessions) != 1 || spec.Config.Sessions[0].Name != "a" {
		t.Fatalf("sessions = %+v", spec.Config.Sessions)
	}
	if _, ok := spec.Config.Sessions[0].Pattern.(workload.Greedy); !ok {
		t.Fatal("pattern not greedy")
	}
	if spec.Duration != 500*sim.Millisecond {
		t.Fatalf("default duration = %v", spec.Duration)
	}
	if spec.AlgName != "phantom" {
		t.Fatalf("default alg = %q", spec.AlgName)
	}
}

func TestParseFull(t *testing.T) {
	spec := parseOK(t, `
# GFC-style example
switches 4
trunkrate 150
trunk 1 50           # narrow middle trunk
trunkdelay 10us
loss 0.01
alg eprca
session long 0 3 greedy
session b 0 1 onoff 50ms 25ms 100ms
session w 1 3 window 100ms 400ms
duration 750ms
`)
	cfg := spec.Config
	if cfg.Nodes != 4 || cfg.TrunkRateBPS != 150e6 {
		t.Fatalf("basics wrong: %+v", cfg)
	}
	want := []scenario.GraphEdge{{U: 0, V: 1}, {U: 1, V: 2, RateBPS: 50e6}, {U: 2, V: 3}}
	if !reflect.DeepEqual(cfg.Edges, want) {
		t.Fatalf("switches 4 + trunk 1 50 lowered to %+v, want %+v", cfg.Edges, want)
	}
	if cfg.TrunkDelay != 10*sim.Microsecond {
		t.Fatalf("delay = %v", cfg.TrunkDelay)
	}
	if cfg.TrunkLossRate != 0.01 {
		t.Fatalf("loss = %v", cfg.TrunkLossRate)
	}
	if spec.AlgName != "eprca" {
		t.Fatalf("alg = %q", spec.AlgName)
	}
	if spec.Duration != 750*sim.Millisecond {
		t.Fatalf("duration = %v", spec.Duration)
	}
	oo, ok := cfg.Sessions[1].Pattern.(workload.PeriodicOnOff)
	if !ok || oo.On != 50*sim.Millisecond || oo.Off != 25*sim.Millisecond || oo.Start != sim.Time(100*sim.Millisecond) {
		t.Fatalf("onoff = %+v", cfg.Sessions[1].Pattern)
	}
	w, ok := cfg.Sessions[2].Pattern.(workload.Window)
	if !ok || w.Start != sim.Time(100*sim.Millisecond) || w.Stop != sim.Time(400*sim.Millisecond) {
		t.Fatalf("window = %+v", cfg.Sessions[2].Pattern)
	}
}

func TestParsedSpecActuallyRuns(t *testing.T) {
	spec := parseOK(t, `
switches 2
alg phantom u=5
session a 0 1 greedy
session b 0 1 greedy
duration 100ms
`)
	n, err := scenario.BuildGraph(spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(spec.Duration)
	if n.Dests[0].DataCells() == 0 {
		t.Fatal("parsed scenario delivered nothing")
	}
}

func TestParseAlgVariants(t *testing.T) {
	for _, alg := range []string{"phantom", "phantom-ci", "eprca", "aprc", "capc", "exact", "erica"} {
		spec := parseOK(t, "alg "+alg+"\nsession a 0 1 greedy\n")
		if spec.Config.Alg == nil {
			t.Errorf("%s: nil factory", alg)
		}
	}
	spec := parseOK(t, "alg none\nsession a 0 1 greedy\n")
	if spec.Config.Alg == nil {
		t.Error("none: want the switchalg.None factory, got a nil Factory")
	} else if spec.Config.Alg() != nil {
		t.Error("none: factory should produce a nil algorithm")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"no sessions", "switches 3\n"},
		{"bad directive", "frobnicate 7\nsession a 0 1 greedy\n"},
		{"bad switches", "switches x\n"},
		{"bad trunk index", "switches 2\ntrunk 5 100\nsession a 0 1 greedy\n"},
		{"bad alg", "alg quantum\nsession a 0 1 greedy\n"},
		{"bad alg option", "alg phantom q=3\nsession a 0 1 greedy\n"},
		{"bad pattern", "session a 0 1 fractal\n"},
		{"onoff missing args", "session a 0 1 onoff 5ms\n"},
		{"window missing args", "session a 0 1 window 5ms\n"},
		{"bad duration", "duration never\nsession a 0 1 greedy\n"},
		{"bad loss", "loss 2\nsession a 0 1 greedy\n"},
		{"session missing args", "session a 0\n"},
		{"bad entry", "session a x 1 greedy\n"},
		// Hardening: range, duplicate and finiteness checks.
		{"switches too small", "switches 1\nsession a 0 1 greedy\n"},
		{"switches too big", "switches 100000\nsession a 0 1 greedy\n"},
		{"duplicate session name", "session a 0 1 greedy\nsession a 0 1 greedy\n"},
		{"entry == exit", "session a 1 1 greedy\nswitches 3\n"},
		{"entry > exit", "switches 3\nsession a 2 0 greedy\n"},
		{"exit out of range", "switches 3\nsession a 0 7 greedy\n"},
		{"negative entry", "session a -1 1 greedy\n"},
		{"nan loss", "loss NaN\nsession a 0 1 greedy\n"},
		{"inf trunkrate", "trunkrate Inf\nsession a 0 1 greedy\n"},
		{"trunkrate zero", "trunkrate 0\nsession a 0 1 greedy\n"},
		{"negative trunkdelay", "trunkdelay -1ms\nsession a 0 1 greedy\n"},
		{"duration too long", "duration 2h\nsession a 0 1 greedy\n"},
		{"negative duration", "duration -5ms\nsession a 0 1 greedy\n"},
		{"negative onoff", "session a 0 1 onoff -5ms 5ms\n"},
		{"u out of range", "alg phantom u=-1\nsession a 0 1 greedy\n"},
		{"greedy with args", "session a 0 1 greedy now\n"},
		{"randonoff mean too small", "session a 0 1 randonoff 1us 5ms\n"},
		{"randonoff bad seed", "session a 0 1 randonoff 5ms 5ms -3\n"},
		// at-event validation.
		{"at bad kind", "at 5ms flip 0 1\nsession a 0 1 greedy\n"},
		{"at bad index", "at 5ms rate 7 50\nsession a 0 1 greedy\n"},
		{"at negative index", "at 5ms rate -1 50\nsession a 0 1 greedy\n"},
		{"at loss out of range", "at 5ms loss 0 1.5\nsession a 0 1 greedy\n"},
		{"at missing value", "at 5ms rate 0\nsession a 0 1 greedy\n"},
		{"accessrate missing", "accessrate\nsession a 0 1 greedy\n"},
		{"accessrate zero", "accessrate 0\nsession a 0 1 greedy\n"},
		{"accessrate nan", "nodes 2\nedge 0 1\naccessrate NaN\nsession a 0 1 greedy\n"},
		// Graph spelling validation.
		{"mixed dialects", "switches 2\nedge 0 1\nsession a 0 1 greedy\n"},
		{"graph without nodes", "edge 0 1\nsession a 0 1 greedy\n"},
		{"graph without edges", "nodes 2\nsession a 0 1 greedy\n"},
		{"edge bad node", "nodes 2\nedge 0 5\nsession a 0 1 greedy\n"},
		{"edge self loop", "nodes 2\nedge 1 1\nsession a 0 1 greedy\n"},
		{"edge bad option", "nodes 2\nedge 0 1 speed=9\nsession a 0 1 greedy\n"},
		{"graph session same endpoints", "nodes 2\nedge 0 1\nsession a 1 1 greedy\n"},
		{"graph session bad node", "nodes 2\nedge 0 1\nsession a 0 5 greedy\n"},
		{"graph at bad index", "nodes 2\nedge 0 1\nat 1ms rate 3 50\nsession a 0 1 greedy\n"},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.text)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestParseGraph(t *testing.T) {
	spec := parseOK(t, `
nodes 4
edge 0 1
edge 0 2 rate=50
edge 1 3 delay=1ms
edge 2 3
trunkrate 150
alg phantom u=5
session across 0 3 greedy
session top 0 1 greedy
at 50ms rate 0 25
duration 100ms
`)
	g := &spec.Config
	if g.AccessRateBPS != 0 {
		t.Fatalf("access rate = %v, want unset (the graph default)", g.AccessRateBPS)
	}
	if g.Nodes != 4 || len(g.Edges) != 4 {
		t.Fatalf("topology = %d nodes, %d edges", g.Nodes, len(g.Edges))
	}
	if g.Edges[1].RateBPS != 50e6 || g.Edges[2].Delay != sim.Millisecond {
		t.Fatalf("edge options = %+v", g.Edges)
	}
	if g.TrunkRateBPS != 150e6 {
		t.Fatalf("graph trunkrate = %v", g.TrunkRateBPS)
	}
	if len(g.Sessions) != 2 || g.Sessions[0].Src != 0 || g.Sessions[0].Dst != 3 {
		t.Fatalf("sessions = %+v", g.Sessions)
	}
	if len(g.Events) != 1 || g.Events[0].Kind != scenario.TransientRate || g.Events[0].Value != 25e6 {
		t.Fatalf("events = %+v", g.Events)
	}

	n, err := scenario.BuildGraph(*g)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(spec.Duration)
	if n.Dests[0].DataCells() == 0 {
		t.Fatal("parsed graph scenario delivered nothing")
	}
}

// TestParseAccessRate: accessrate is shared by both spellings; unset, the
// shorthand means the paper's 150 Mb/s and the graph form leaves the
// builder's fastest-edge default in charge.
func TestParseAccessRate(t *testing.T) {
	for text, want := range map[string]float64{
		"switches 2\ntrunkrate 50\nsession a 0 1 greedy\n":                 150e6,
		"switches 2\naccessrate 25\nsession a 0 1 greedy\n":                25e6,
		"nodes 2\nedge 0 1 rate=50\nsession a 0 1 greedy\n":                0,
		"nodes 2\nedge 0 1\naccessrate 622.08\nsession a 0 1 greedy\n":     622.08e6,
		"session a 0 1 greedy\naccessrate 10\n":                            10e6,
		"accessrate 10\nswitches 3\nsession a 0 1 greedy\naccessrate 20\n": 20e6,
	} {
		if got := parseOK(t, text).Config.AccessRateBPS; got != want {
			t.Errorf("%q: access rate %v, want %v", text, got, want)
		}
	}
}

func TestParseTransientEvents(t *testing.T) {
	spec := parseOK(t, `
switches 3
session a 0 2 greedy
at 10ms rate 1 50
at 20ms loss 0 0.25
`)
	evs := spec.Config.Events
	if len(evs) != 2 {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Kind != scenario.TransientRate || evs[0].Index != 1 || evs[0].Value != 50e6 ||
		evs[0].At != 10*sim.Millisecond {
		t.Fatalf("rate event = %+v", evs[0])
	}
	if evs[1].Kind != scenario.TransientLoss || evs[1].Value != 0.25 {
		t.Fatalf("loss event = %+v", evs[1])
	}
	if _, err := scenario.BuildGraph(spec.Config); err != nil {
		t.Fatalf("transient spec does not build: %v", err)
	}
}

func TestParseRandOnOff(t *testing.T) {
	spec := parseOK(t, "session a 0 1 randonoff 10ms 40ms 7 5ms\nduration 200ms\n")
	p, ok := spec.Config.Sessions[0].Pattern.(*workload.RandomOnOff)
	if !ok {
		t.Fatalf("pattern = %T", spec.Config.Sessions[0].Pattern)
	}
	if p.Seed != 7 || p.MeanOn != 10*sim.Millisecond || p.MeanOff != 40*sim.Millisecond ||
		p.Start != sim.Time(5*sim.Millisecond) {
		t.Fatalf("params = %+v", p)
	}
	// Defaulted seed and start.
	spec = parseOK(t, "session a 0 1 randonoff 10ms 40ms\n")
	p = spec.Config.Sessions[0].Pattern.(*workload.RandomOnOff)
	if p.Seed != 1 || p.Start != 0 {
		t.Fatalf("defaults = %+v", p)
	}
}

func TestParseAlgU(t *testing.T) {
	spec := parseOK(t, "alg phantom u=7.5\nsession a 0 1 greedy\n")
	if spec.AlgU != 7.5 {
		t.Fatalf("AlgU = %v", spec.AlgU)
	}
	spec = parseOK(t, "alg eprca\nsession a 0 1 greedy\n")
	if spec.AlgU != 0 {
		t.Fatalf("AlgU = %v for eprca", spec.AlgU)
	}
}

func TestParseExamples(t *testing.T) {
	for _, f := range exampleFiles(t) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Parse(strings.NewReader(string(data)))
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if _, err := scenario.BuildGraph(spec.Config); err != nil {
			t.Errorf("%s: BuildGraph: %v", f, err)
		}
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	spec := parseOK(t, `
# full-line comment

session a 0 1 greedy   # trailing comment
`)
	if len(spec.Config.Sessions) != 1 {
		t.Fatal("comment handling broke parsing")
	}
}
