// Package simconfig parses the small topology description language used by
// cmd/phantom-sim and the scenario generator, turning a text file into a
// runnable ATM scenario (a scenario.GraphConfig). The format is
// line-oriented; '#' starts a comment.
//
//	nodes 4                    # switches 0..3
//	edge 0 1                   # full-duplex trunk, default rate and delay
//	edge 0 2 rate=50           # Mb/s
//	edge 1 3 delay=1ms
//	edge 2 3
//	trunkrate 150              # default edge rate, Mb/s
//	trunkdelay 5us             # default edge propagation delay
//	accessrate 150             # end-system access links, Mb/s (default:
//	                           # the fastest edge)
//	alg phantom u=5            # phantom | phantom-ci | eprca | aprc |
//	                           # capc | exact | erica | none
//	session across 0 3 greedy  # name, source node, destination node,
//	                           # pattern; routed by deterministic shortest
//	                           # path (scenario.BuildGraph)
//	session b1 0 1 onoff 50ms 50ms [start]
//	session w1 1 3 window 100ms 400ms
//	session u1 0 3 randonoff 20ms 80ms 7     # exponential on/off, seed 7
//	at 100ms rate 1 50         # cut edge 1 to 50 Mb/s at t=100ms
//	at 200ms loss 0 0.01       # 1% loss on edge 0 from t=200ms
//	duration 500ms             # simulated time
//	shards 2                   # split across 2 engines (optional; DESIGN.md §14)
//	partition 0 0 1 1          # pin node→shard (optional; default auto-partition)
//
// That is the one form Emit writes. Parse also accepts a shorthand for the
// paper's linear ("parking lot") networks and lowers it to the form above
// as it reads: "switches n" is n nodes chained by edges (k, k+1), "trunk k
// r" is rate=r on edge k, sessions must run entry < exit, and the access
// rate is the paper's 150 Mb/s unless accessrate says otherwise.
//
//	switches 4                 # nodes 4, edge 0 1, edge 1 2, edge 2 3,
//	                           # accessrate 150
//	trunk 1 50                 # edge 1 2 rate=50
//	session long 0 3 greedy
//
// Patterns: greedy | onoff <on> <off> [start] | window <start> <stop> |
// randonoff <meanOn> <meanOff> [seed] [start].
package simconfig

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/workload"
)

// Limits keep adversarial (fuzzed) inputs from describing scenarios that
// would exhaust memory or simulated time before any invariant can fire.
const (
	// MaxNodes bounds the node (switch) count.
	MaxNodes = 4096
	// MaxEdges bounds the edge list.
	MaxEdges = 8192
	// MaxSessions bounds the session population.
	MaxSessions = 4096
	// MaxEvents bounds the transient schedule.
	MaxEvents = 4096
	// MaxDuration bounds the run length and every pattern timestamp.
	MaxDuration = 60 * sim.Second
	// minRateMbps..maxRateMbps bound every rate in Mb/s (1 kb/s..1 Tb/s).
	minRateMbps = 1e-3
	maxRateMbps = 1e6
	// minMeanOnOff keeps randonoff from pre-generating an unbounded
	// transition schedule over the run horizon.
	minMeanOnOff = sim.Millisecond
	// maxRandTransitions bounds the total pre-generated on/off transitions
	// across all randonoff sessions of one spec (expected-count estimate),
	// so a fuzzed spec cannot demand gigabytes of schedule at parse time.
	maxRandTransitions = 1 << 20
)

// Spec is a parsed simulation description.
type Spec struct {
	// Config is the scenario, whichever spelling declared it; build it with
	// scenario.BuildGraph.
	Config   scenario.GraphConfig
	Duration sim.Duration
	// AlgName records the chosen algorithm for display and re-emission.
	AlgName string
	// AlgU records the alg directive's u= factor (0 when absent).
	AlgU float64
}

// sessionLine is a session directive before pattern materialization —
// randonoff needs the final duration as its horizon, and duration may be
// declared after the sessions.
type sessionLine struct {
	name   string
	a, b   int
	pat    []string
	lineNo int
}

// Parse reads a topology description.
func Parse(r io.Reader) (*Spec, error) {
	spec := &Spec{Duration: 500 * sim.Millisecond, AlgName: "phantom"}
	cfg := &spec.Config
	cfg.Alg = switchalg.NewPhantom(core.Config{})
	var (
		trunkOverrides map[int]float64
		sessions       []sessionLine
		mode           string // "", "linear", "graph"
		names          = map[string]bool{}
	)

	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		setMode := func(m string) error {
			if mode != "" && mode != m {
				return fail("%q directive mixes %s topology into a %s spec", fields[0], m, mode)
			}
			mode = m
			return nil
		}
		switch fields[0] {
		case "switches", "nodes":
			m := "graph"
			if fields[0] == "switches" {
				m = "linear"
			}
			if err := setMode(m); err != nil {
				return nil, err
			}
			n, err := atoiField(fields, 1)
			if err != nil {
				return nil, fail("%s <n>: %v", fields[0], err)
			}
			if n < 2 || n > MaxNodes {
				return nil, fail("%s %d out of range [2, %d]", fields[0], n, MaxNodes)
			}
			cfg.Nodes = n
		case "edge":
			if err := setMode("graph"); err != nil {
				return nil, err
			}
			u, err := atoiField(fields, 1)
			if err != nil {
				return nil, fail("edge <u> <v> [rate=<Mb/s>] [delay=<dur>]: %v", err)
			}
			v, err := atoiField(fields, 2)
			if err != nil {
				return nil, fail("edge <u> <v> [rate=<Mb/s>] [delay=<dur>]: %v", err)
			}
			ed := scenario.GraphEdge{U: u, V: v}
			for _, f := range fields[3:] {
				switch {
				case strings.HasPrefix(f, "rate="):
					mbps, err := rateMbps(f[len("rate="):])
					if err != nil {
						return nil, fail("edge rate=: %v", err)
					}
					ed.RateBPS = mbps * 1e6
				case strings.HasPrefix(f, "delay="):
					d, err := boundedDur(f[len("delay="):], 0, sim.Second)
					if err != nil {
						return nil, fail("edge delay=: %v", err)
					}
					ed.Delay = d
				default:
					return nil, fail("unknown edge option %q", f)
				}
			}
			if len(cfg.Edges) >= MaxEdges {
				return nil, fail("more than %d edges", MaxEdges)
			}
			cfg.Edges = append(cfg.Edges, ed)
		case "trunkrate":
			if len(fields) < 2 {
				return nil, fail("trunkrate <Mb/s>: missing argument")
			}
			mbps, err := rateMbps(fields[1])
			if err != nil {
				return nil, fail("trunkrate <Mb/s>: %v", err)
			}
			cfg.TrunkRateBPS = mbps * 1e6
		case "trunk":
			if err := setMode("linear"); err != nil {
				return nil, err
			}
			idx, err := atoiField(fields, 1)
			if err != nil {
				return nil, fail("trunk <index> <Mb/s>: %v", err)
			}
			if idx < 0 || idx >= MaxNodes {
				return nil, fail("trunk index %d out of range", idx)
			}
			if len(fields) < 3 {
				return nil, fail("trunk <index> <Mb/s>: missing argument")
			}
			mbps, err := rateMbps(fields[2])
			if err != nil {
				return nil, fail("trunk <index> <Mb/s>: %v", err)
			}
			if trunkOverrides == nil {
				trunkOverrides = map[int]float64{}
			}
			trunkOverrides[idx] = mbps * 1e6
		case "trunkdelay":
			if len(fields) < 2 {
				return nil, fail("trunkdelay <duration>: missing argument")
			}
			d, err := boundedDur(fields[1], 0, sim.Second)
			if err != nil {
				return nil, fail("trunkdelay <duration>: %v", err)
			}
			cfg.TrunkDelay = d
		case "accessrate":
			if len(fields) < 2 {
				return nil, fail("accessrate <Mb/s>: missing argument")
			}
			mbps, err := rateMbps(fields[1])
			if err != nil {
				return nil, fail("accessrate <Mb/s>: %v", err)
			}
			cfg.AccessRateBPS = mbps * 1e6
		case "loss":
			rate, err := floatField(fields, 1)
			if err != nil || rate < 0 || rate >= 1 {
				return nil, fail("loss <rate in [0,1)>")
			}
			cfg.TrunkLossRate = rate
		case "alg":
			if len(fields) < 2 {
				return nil, fail("alg <name> [u=<factor>]")
			}
			factory, u, err := algFactory(fields[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			cfg.Alg = factory
			spec.AlgName = fields[1]
			spec.AlgU = u
		case "session":
			if len(fields) < 5 {
				return nil, fail("session <name> <entry> <exit> <pattern...>")
			}
			name := fields[1]
			if names[name] {
				return nil, fail("duplicate session name %q", name)
			}
			names[name] = true
			a, err := atoiField(fields, 2)
			if err != nil {
				return nil, fail("entry: %v", err)
			}
			b, err := atoiField(fields, 3)
			if err != nil {
				return nil, fail("exit: %v", err)
			}
			if len(sessions) >= MaxSessions {
				return nil, fail("more than %d sessions", MaxSessions)
			}
			sessions = append(sessions, sessionLine{name: name, a: a, b: b, pat: fields[4:], lineNo: lineNo})
		case "at":
			// at <time> rate <index> <Mb/s> | at <time> loss <index> <rate>
			if len(fields) != 5 {
				return nil, fail("at <time> rate|loss <index> <value>")
			}
			when, err := boundedDur(fields[1], 0, MaxDuration)
			if err != nil {
				return nil, fail("at <time>: %v", err)
			}
			idx, err := atoiField(fields, 3)
			if err != nil {
				return nil, fail("at index: %v", err)
			}
			if idx < 0 {
				return nil, fail("at index %d negative", idx)
			}
			ev := scenario.TransientEvent{At: when, Index: idx}
			switch fields[2] {
			case "rate":
				mbps, err := rateMbps(fields[4])
				if err != nil {
					return nil, fail("at rate: %v", err)
				}
				ev.Kind, ev.Value = scenario.TransientRate, mbps*1e6
			case "loss":
				frac, err := floatField(fields, 4)
				if err != nil || frac < 0 || frac >= 1 {
					return nil, fail("at loss <rate in [0,1)>")
				}
				ev.Kind, ev.Value = scenario.TransientLoss, frac
			default:
				return nil, fail("at kind %q (want rate or loss)", fields[2])
			}
			if len(cfg.Events) >= MaxEvents {
				return nil, fail("more than %d events", MaxEvents)
			}
			cfg.Events = append(cfg.Events, ev)
		case "shards":
			n, err := atoiField(fields, 1)
			if err != nil {
				return nil, fail("shards <n>: %v", err)
			}
			if n < 1 || n > MaxNodes {
				return nil, fail("shards %d out of range [1, %d]", n, MaxNodes)
			}
			cfg.Shards = n
		case "partition":
			if len(fields) < 2 {
				return nil, fail("partition <shard of node 0> <shard of node 1> ...")
			}
			if cfg.Partition != nil {
				return nil, fail("duplicate partition directive")
			}
			cfg.Partition = make([]int, 0, len(fields)-1)
			for _, f := range fields[1:] {
				v, err := strconv.Atoi(f)
				if err != nil {
					return nil, fail("partition: %v", err)
				}
				if v < 0 || v >= MaxNodes {
					return nil, fail("partition shard %d out of range [0, %d)", v, MaxNodes)
				}
				cfg.Partition = append(cfg.Partition, v)
			}
		case "duration":
			if len(fields) < 2 {
				return nil, fail("duration <duration>: missing argument")
			}
			d, err := boundedDur(fields[1], sim.Microsecond, MaxDuration)
			if err != nil {
				return nil, fail("duration <duration>: %v", err)
			}
			spec.Duration = d
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(sessions) == 0 {
		return nil, fmt.Errorf("no sessions declared")
	}

	if mode != "graph" {
		if err := lowerLinear(cfg, trunkOverrides, sessions); err != nil {
			return nil, err
		}
	}
	return finish(spec, sessions)
}

// lowerLinear turns the switches/trunk shorthand into the edge list and
// explicit access rate it stands for — the same lowering scenario.BuildATM
// applies to a chain — and holds sessions to the chain's entry < exit
// direction.
func lowerLinear(cfg *scenario.GraphConfig, trunkOverrides map[int]float64, sessions []sessionLine) error {
	chain := scenario.ATMConfig{Switches: cfg.Nodes, AccessRateBPS: cfg.AccessRateBPS}
	if chain.Switches == 0 {
		chain.Switches = 2
	}
	if trunkOverrides != nil {
		chain.TrunkRatesBPS = make([]float64, chain.Switches-1)
		for k, v := range trunkOverrides {
			if k >= len(chain.TrunkRatesBPS) {
				return fmt.Errorf("trunk override %d out of range (have %d trunks)", k, len(chain.TrunkRatesBPS))
			}
			chain.TrunkRatesBPS[k] = v
		}
	}
	g := chain.Lower()
	cfg.Nodes, cfg.Edges, cfg.AccessRateBPS = g.Nodes, g.Edges, g.AccessRateBPS
	for _, s := range sessions {
		if s.a >= s.b {
			return fmt.Errorf("line %d: session %q route %d→%d invalid for %d switches (need 0 ≤ entry < exit)",
				s.lineNo, s.name, s.a, s.b, cfg.Nodes)
		}
	}
	return nil
}

// finish validates the cross-line constraints — everything that needs the
// final node count, edge list or duration — and materializes the sessions.
func finish(spec *Spec, sessions []sessionLine) (*Spec, error) {
	cfg := &spec.Config
	if cfg.Nodes == 0 {
		return nil, fmt.Errorf("graph spec needs a nodes directive")
	}
	if cfg.Partition != nil {
		if len(cfg.Partition) != cfg.Nodes {
			return nil, fmt.Errorf("partition assigns %d of %d nodes", len(cfg.Partition), cfg.Nodes)
		}
		// Shard ids never exceed the node count: a shard needs at least one
		// node to own.
		limit := cfg.Shards
		if limit == 0 {
			limit = cfg.Nodes
		}
		for i, s := range cfg.Partition {
			if s >= limit {
				return nil, fmt.Errorf("partition assigns node %d to shard %d (have %d)", i, s, limit)
			}
		}
	}
	if len(cfg.Edges) == 0 {
		return nil, fmt.Errorf("graph spec needs at least one edge")
	}
	for k, ed := range cfg.Edges {
		if ed.U < 0 || ed.U >= cfg.Nodes || ed.V < 0 || ed.V >= cfg.Nodes || ed.U == ed.V {
			return nil, fmt.Errorf("edge %d joins invalid nodes %d–%d (have %d nodes)", k, ed.U, ed.V, cfg.Nodes)
		}
	}
	for _, ev := range cfg.Events {
		if ev.Index >= len(cfg.Edges) {
			return nil, fmt.Errorf("at event edge %d out of range (have %d edges)", ev.Index, len(cfg.Edges))
		}
	}
	cfg.Duration = spec.Duration
	budget := maxRandTransitions
	for _, s := range sessions {
		if s.a < 0 || s.a >= cfg.Nodes || s.b < 0 || s.b >= cfg.Nodes || s.a == s.b {
			return nil, fmt.Errorf("line %d: session %q endpoints %d→%d invalid for %d nodes",
				s.lineNo, s.name, s.a, s.b, cfg.Nodes)
		}
		pat, err := parsePattern(s.pat, spec.Duration, &budget)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", s.lineNo, err)
		}
		cfg.Sessions = append(cfg.Sessions, scenario.GraphSessionSpec{
			Name: s.name, Src: s.a, Dst: s.b, Pattern: pat,
		})
	}
	return spec, nil
}

// algFactory builds a switch algorithm from its name and optional u=<f>.
func algFactory(fields []string) (switchalg.Factory, float64, error) {
	u := 0.0
	for _, f := range fields[1:] {
		if v, ok := strings.CutPrefix(f, "u="); ok {
			parsed, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("u=: %v", err)
			}
			if math.IsNaN(parsed) || parsed < 0 || parsed > 1024 {
				return nil, 0, fmt.Errorf("u=%v out of range [0, 1024]", parsed)
			}
			u = parsed
		} else {
			return nil, 0, fmt.Errorf("unknown alg option %q", f)
		}
	}
	switch fields[0] {
	case "phantom":
		return switchalg.NewPhantom(core.Config{UtilizationFactor: u}), u, nil
	case "phantom-ci":
		return switchalg.NewPhantomCI(core.Config{UtilizationFactor: u}), u, nil
	case "eprca":
		return switchalg.NewEPRCA(), u, nil
	case "aprc":
		return switchalg.NewAPRC(), u, nil
	case "capc":
		return switchalg.NewCAPC(), u, nil
	case "exact":
		return switchalg.NewExactMaxMin(), u, nil
	case "erica":
		return switchalg.NewERICA(), u, nil
	case "none":
		return switchalg.None, u, nil
	default:
		return nil, 0, fmt.Errorf("unknown algorithm %q", fields[0])
	}
}

// parsePattern builds a workload pattern from its textual form. horizon is
// the spec duration, needed to pre-generate random on/off schedules;
// budget is the remaining spec-wide randonoff transition allowance.
func parsePattern(fields []string, horizon sim.Duration, budget *int) (workload.Pattern, error) {
	switch fields[0] {
	case "greedy":
		if len(fields) != 1 {
			return nil, fmt.Errorf("greedy takes no arguments")
		}
		return workload.Greedy{}, nil
	case "onoff":
		if len(fields) < 3 || len(fields) > 4 {
			return nil, fmt.Errorf("onoff <on> <off> [start]")
		}
		on, err := boundedDur(fields[1], sim.Microsecond, MaxDuration)
		if err != nil {
			return nil, fmt.Errorf("onoff on: %v", err)
		}
		off, err := boundedDur(fields[2], 0, MaxDuration)
		if err != nil {
			return nil, fmt.Errorf("onoff off: %v", err)
		}
		if off > 0 && off < sim.Microsecond {
			return nil, fmt.Errorf("onoff off %v below 1µs", off)
		}
		var start sim.Time
		if len(fields) > 3 {
			s, err := boundedDur(fields[3], 0, MaxDuration)
			if err != nil {
				return nil, fmt.Errorf("onoff start: %v", err)
			}
			start = sim.Time(s)
		}
		return workload.PeriodicOnOff{Start: start, On: on, Off: off}, nil
	case "window":
		if len(fields) != 3 {
			return nil, fmt.Errorf("window <start> <stop>")
		}
		start, err := boundedDur(fields[1], 0, MaxDuration)
		if err != nil {
			return nil, fmt.Errorf("window start: %v", err)
		}
		stop, err := boundedDur(fields[2], 0, MaxDuration)
		if err != nil {
			return nil, fmt.Errorf("window stop: %v", err)
		}
		return workload.Window{Start: sim.Time(start), Stop: sim.Time(stop)}, nil
	case "randonoff":
		if len(fields) < 3 || len(fields) > 5 {
			return nil, fmt.Errorf("randonoff <meanOn> <meanOff> [seed] [start]")
		}
		meanOn, err := boundedDur(fields[1], minMeanOnOff, MaxDuration)
		if err != nil {
			return nil, fmt.Errorf("randonoff meanOn: %v", err)
		}
		meanOff, err := boundedDur(fields[2], minMeanOnOff, MaxDuration)
		if err != nil {
			return nil, fmt.Errorf("randonoff meanOff: %v", err)
		}
		seed := uint64(1)
		if len(fields) > 3 {
			seed, err = strconv.ParseUint(fields[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("randonoff seed: %v", err)
			}
		}
		var start sim.Time
		if len(fields) > 4 {
			s, err := boundedDur(fields[4], 0, MaxDuration)
			if err != nil {
				return nil, fmt.Errorf("randonoff start: %v", err)
			}
			start = sim.Time(s)
		}
		*budget -= 2*int(horizon/(meanOn+meanOff)) + 4
		if *budget < 0 {
			return nil, fmt.Errorf("randonoff schedules exceed %d total expected transitions", maxRandTransitions)
		}
		return workload.NewRandomOnOff(seed, start, meanOn, meanOff, sim.Time(horizon)), nil
	default:
		return nil, fmt.Errorf("unknown pattern %q", fields[0])
	}
}

func atoiField(fields []string, i int) (int, error) {
	if i >= len(fields) {
		return 0, fmt.Errorf("missing argument")
	}
	return strconv.Atoi(fields[i])
}

func floatField(fields []string, i int) (float64, error) {
	if i >= len(fields) {
		return 0, fmt.Errorf("missing argument")
	}
	v, err := strconv.ParseFloat(fields[i], 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", fields[i])
	}
	return v, nil
}

// rateMbps parses a rate in Mb/s, bounded to [1 kb/s, 1 Tb/s].
func rateMbps(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || v < minRateMbps || v > maxRateMbps {
		return 0, fmt.Errorf("rate %q out of range [%g, %g] Mb/s", s, float64(minRateMbps), float64(maxRateMbps))
	}
	return v, nil
}

// boundedDur parses a duration and enforces [min, max].
func boundedDur(s string, min, max sim.Duration) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < min || d > max {
		return 0, fmt.Errorf("duration %v out of range [%v, %v]", d, min, max)
	}
	return d, nil
}
