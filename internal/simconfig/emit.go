package simconfig

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Emit renders spec back into the simconfig language in a canonical
// directive order, such that Parse(Emit(spec)) reproduces spec. It writes
// only the nodes/edge form — never the switches/trunk shorthand Parse also
// reads — with accessrate whenever the spec sets one. The scenario
// generator uses it to freeze failing fuzz seeds as runnable,
// human-editable regression files.
//
// Only the patterns the language can express (greedy, onoff, window,
// randonoff) are representable; any other Pattern implementation is an
// error.
func Emit(spec *Spec) (string, error) {
	var b strings.Builder
	cfg := &spec.Config
	fmt.Fprintf(&b, "nodes %d\n", cfg.Nodes)
	for _, ed := range cfg.Edges {
		fmt.Fprintf(&b, "edge %d %d", ed.U, ed.V)
		if ed.RateBPS > 0 {
			fmt.Fprintf(&b, " rate=%s", mbps(ed.RateBPS))
		}
		if ed.Delay > 0 {
			fmt.Fprintf(&b, " delay=%s", durText(ed.Delay))
		}
		b.WriteByte('\n')
	}
	if cfg.TrunkRateBPS > 0 {
		fmt.Fprintf(&b, "trunkrate %s\n", mbps(cfg.TrunkRateBPS))
	}
	if cfg.TrunkDelay > 0 {
		fmt.Fprintf(&b, "trunkdelay %s\n", durText(cfg.TrunkDelay))
	}
	if cfg.AccessRateBPS > 0 {
		fmt.Fprintf(&b, "accessrate %s\n", mbps(cfg.AccessRateBPS))
	}
	if cfg.TrunkLossRate > 0 {
		fmt.Fprintf(&b, "loss %s\n", floatText(cfg.TrunkLossRate))
	}
	if spec.AlgU != 0 {
		fmt.Fprintf(&b, "alg %s u=%s\n", spec.AlgName, floatText(spec.AlgU))
	} else {
		fmt.Fprintf(&b, "alg %s\n", spec.AlgName)
	}
	fmt.Fprintf(&b, "duration %s\n", durText(spec.Duration))
	if cfg.Shards > 0 {
		fmt.Fprintf(&b, "shards %d\n", cfg.Shards)
	}
	if cfg.Partition != nil {
		b.WriteString("partition")
		for _, s := range cfg.Partition {
			fmt.Fprintf(&b, " %d", s)
		}
		b.WriteByte('\n')
	}
	for _, s := range cfg.Sessions {
		pat, err := patternText(s.Pattern)
		if err != nil {
			return "", fmt.Errorf("session %q: %w", s.Name, err)
		}
		fmt.Fprintf(&b, "session %s %d %d %s\n", s.Name, s.Src, s.Dst, pat)
	}
	for _, ev := range cfg.Events {
		switch ev.Kind {
		case scenario.TransientRate:
			fmt.Fprintf(&b, "at %s rate %d %s\n", durText(ev.At), ev.Index, mbps(ev.Value))
		case scenario.TransientLoss:
			fmt.Fprintf(&b, "at %s loss %d %s\n", durText(ev.At), ev.Index, floatText(ev.Value))
		default:
			return "", fmt.Errorf("unrepresentable transient kind %q", ev.Kind)
		}
	}
	return b.String(), nil
}

// patternText renders a workload pattern in the session-directive syntax.
func patternText(p workload.Pattern) (string, error) {
	switch v := p.(type) {
	case workload.Greedy:
		return "greedy", nil
	case workload.PeriodicOnOff:
		s := fmt.Sprintf("onoff %s %s", durText(v.On), durText(v.Off))
		if v.Start != 0 {
			s += " " + durText(sim.Duration(v.Start))
		}
		return s, nil
	case workload.Window:
		return fmt.Sprintf("window %s %s", durText(sim.Duration(v.Start)), durText(sim.Duration(v.Stop))), nil
	case *workload.RandomOnOff:
		s := fmt.Sprintf("randonoff %s %s %d", durText(v.MeanOn), durText(v.MeanOff), v.Seed)
		if v.Start != 0 {
			s += " " + durText(sim.Duration(v.Start))
		}
		return s, nil
	default:
		return "", fmt.Errorf("unrepresentable pattern %T", p)
	}
}

// mbps renders a bits/s rate as the shortest exact Mb/s literal.
func mbps(bps float64) string { return floatText(bps / 1e6) }

// floatText is the shortest decimal that parses back to exactly v.
func floatText(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// durText renders a duration so time.ParseDuration recovers it exactly.
func durText(d sim.Duration) string { return time.Duration(d).String() }
