package main

import (
	"encoding/json"
	"fmt"
)

// The five workloads. Each runs in its own process (the driver, and the
// all-workloads mode of this binary, start one process per workload) so
// peak RSS, heap state and GC history never leak from one into the next.
const (
	wlATMChain  = "atm_chain"
	wlATMShard2 = "atm_chain_shard2"
	wlTCPTimers = "tcp_timers"
	wlIngest    = "daemon_ingest"
	wlQuery     = "daemon_query"
)

// workloadDef names a workload and records why it is in the benchmark; the
// why is the one-line form that goes into BENCHMARK.json (README.md has the
// long form).
type workloadDef struct {
	Name string
	Why  string
	// procs is the GOMAXPROCS the workload's process is pinned to: the
	// host's two cores, except for daemon_query. That one is a single
	// closed-loop client whose sub-millisecond requests give a second
	// thread nothing to do but be woken: at two, client and handler
	// goroutines land on different threads and every request pays two
	// cross-vCPU wake-ups, whose cost is the hypervisor's, varies with the
	// host's other tenants (run-to-run spread of 27-30% under a synthetic
	// two-burner load, against 11-14% at one) and is no part of the program.
	procs int
	run   func(b *bench) error
}

var workloads = []workloadDef{
	{wlATMChain, "24-switch Phantom parking lot on one engine: fire-dominated, ~300 pending events; sim, cell path and switchalg do all the work, shard/store/serve/api none", benchProcs, runATMChain},
	{wlATMShard2, "same topology on 2 shards: identical simulated work plus only the shard layer (barriers, conduit flush), so its cost is the whole difference from atm_chain", benchProcs, runATMShard2},
	{wlTCPTimers, "2000 Reno flows under Selective Discard: schedule/cancel churn of RTO and delayed-ACK timers over a ~20k-event calendar, tcp+ip per-event work, no cell path", benchProcs, runTCPTimers},
	{wlIngest, "write path through a live daemon: Submit 250-run sweeps of 1 ms E01, api.Expand, fleet, store encode and in-order commit, NDJSON results stream; per-run overhead sets the time", benchProcs, runIngest},
	{wlQuery, "read path on sealed campaigns (13k runs, 4 MB, fits the OS cache): one-run windowed series queries, full summary scans and cross-job aggregates over HTTP", 1, runQuery},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef is one named metric of the benchmark. The end-to-end metrics
// are reported by every workload with spans off; the per-layer metrics come
// from the -trace run. A per-layer metric reads 0 on a workload that never
// enters its layer.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound (end-to-end only) is ISSUE 11's regression bound, the one
	// -compare judges by: the share of the base median the change's median
	// may be worse by. A pair whose own run-to-run spread exceeds it is
	// reported unresolved, not ok.
	Bound float64
	// DriverBound (end-to-end only) is the "bound" of BENCHMARK.json. The
	// driver that reads that file has no unresolved verdict: it refuses the
	// benchmark when ten runs spread wider than this, and a later PR whose
	// median is worse than its parent's by more. So it has to sit above the
	// host's noise — three times the widest spread seen, by the driver's own
	// rule, and at most 0.25.
	DriverBound float64
	// Exact marks counts made by the program: deterministic per seed, equal
	// between two commits unless the model changed.
	Exact bool
	// On lists the workloads that measure a per-layer metric; README.md
	// says which end-to-end metric each should move there.
	On []string
}

const (
	mSetup   = "setup_s"
	mWork    = "work_per_s"
	mOpMS    = "op_ms_p50"
	mPeakRSS = "peak_rss_mb"
)

// endToEnd is what a user of the stack sees. Every workload reports every
// one of them, and none can read 0; README.md says what each means per
// workload (events, runs or rows per second; rep, first-result or
// point-query milliseconds). Durations are wall time on the host.
//
// Ten runs at ten seeds spread (IQR / median) by 1-5% in an hour when the
// host is calm. In a noisy one the timings spread by 2-12% on atm_chain and
// daemon_ingest, up to 20% on tcp_timers (the memory-heaviest), up to 15%
// on atm_chain_shard2 (both cores needed at once) and, under a synthetic
// load of three CPU burners, up to 5% on daemon_query (one thread, every
// median over the whole run). peak_rss_mb spreads by at most 4.7%.
var endToEnd = []metricDef{
	{Name: mSetup, Unit: "s", Better: "lower", Bound: 0.25, DriverBound: 0.25},
	{Name: mWork, Unit: "1/s", Better: "higher", Bound: 0.10, DriverBound: 0.25},
	{Name: mOpMS, Unit: "ms", Better: "lower", Bound: 0.10, DriverBound: 0.25},
	{Name: mPeakRSS, Unit: "MB", Better: "lower", Bound: 0.10, DriverBound: 0.15},
}

var (
	onSims    = []string{wlATMChain, wlATMShard2, wlTCPTimers}
	onATM     = []string{wlATMChain, wlATMShard2}
	onChain   = []string{wlATMChain}
	onShard   = []string{wlATMShard2}
	onTCP     = []string{wlTCPTimers}
	onIngest  = []string{wlIngest}
	onQuery   = []string{wlQuery}
	onDaemons = []string{wlIngest, wlQuery}
	onAll     = []string{wlATMChain, wlATMShard2, wlTCPTimers, wlIngest, wlQuery}
)

var perLayer = []metricDef{
	// sim: hold-model ladder rungs plus the run's own event counts.
	{Name: "sim.heap.ns_per_event_1k", Unit: "ns", Better: "lower", On: onChain},
	{Name: "sim.wheel.ns_per_event_1k", Unit: "ns", Better: "lower", On: onChain},
	{Name: "sim.heap.ns_per_event_100k", Unit: "ns", Better: "lower", On: onTCP},
	{Name: "sim.wheel.ns_per_event_100k", Unit: "ns", Better: "lower", On: onTCP},
	{Name: "sim.cancel_ns_per_op_100k", Unit: "ns", Better: "lower", On: onTCP},
	{Name: "sim.events_fired", Unit: "count", Better: "lower", Exact: true, On: onSims},
	{Name: "sim.events_scheduled", Unit: "count", Better: "lower", Exact: true, On: onSims},
	{Name: "sim.events_canceled", Unit: "count", Better: "lower", Exact: true, On: onSims},

	{Name: "scenario.build_ms", Unit: "ms", Better: "lower", On: onSims},
	{Name: "scenario.run_ns_per_event", Unit: "ns", Better: "lower", On: onSims},

	{Name: "atmnet.cells_sent", Unit: "count", Better: "lower", Exact: true, On: onATM},
	{Name: "atmnet.queue_cells_peak", Unit: "count", Better: "lower", Exact: true, On: onATM},
	{Name: "atm.rm_cells", Unit: "count", Better: "lower", Exact: true, On: onATM},
	{Name: "atmnet.ns_per_cell_hop", Unit: "ns", Better: "lower", On: onATM},

	{Name: "switchalg.phantom.on_transmit_ns", Unit: "ns", Better: "lower", On: onChain},
	{Name: "switchalg.phantom.on_backward_rm_ns", Unit: "ns", Better: "lower", On: onChain},
	{Name: "core.tick_ns", Unit: "ns", Better: "lower", On: []string{wlATMChain, wlTCPTimers}},
	{Name: "switchalg.interval_ticks", Unit: "count", Better: "lower", Exact: true, On: onATM},
	{Name: "switchalg.share_pct", Unit: "%", Better: "lower", On: onChain},

	{Name: "tcp.segments_sent", Unit: "count", Better: "lower", Exact: true, On: onTCP},
	{Name: "tcp.retransmits", Unit: "count", Better: "lower", Exact: true, On: onTCP},
	{Name: "tcp.timeouts", Unit: "count", Better: "lower", Exact: true, On: onTCP},
	{Name: "ip.pkts_sent", Unit: "count", Better: "lower", Exact: true, On: onTCP},
	{Name: "ip.drops_disc", Unit: "count", Better: "lower", Exact: true, On: onTCP},
	{Name: "ip.ns_per_pkt_hop", Unit: "ns", Better: "lower", On: onTCP},

	{Name: "telemetry.on_overhead_pct", Unit: "%", Better: "lower", On: onChain},
	{Name: "trace.on_overhead_pct", Unit: "%", Better: "lower", On: onChain},
	{Name: "telemetry.snapshot_us", Unit: "us", Better: "lower", On: []string{wlATMChain, wlIngest}},

	{Name: "shard.epochs", Unit: "count", Better: "lower", Exact: true, On: onShard},
	{Name: "shard.cells_crossed", Unit: "count", Better: "lower", Exact: true, On: onShard},
	{Name: "shard.busy_ms_max", Unit: "ms", Better: "lower", On: onShard},
	{Name: "shard.crit_ms", Unit: "ms", Better: "lower", On: onShard},
	{Name: "shard.sync_ms", Unit: "ms", Better: "lower", On: onShard},
	{Name: "shard.overhead_us_per_epoch", Unit: "us", Better: "lower", On: onShard},
	{Name: "shard.projected_speedup", Unit: "ratio", Better: "higher", On: onShard},
	{Name: "shard.measured_speedup", Unit: "ratio", Better: "higher", On: onShard},
	{Name: "shard.efficiency", Unit: "ratio", Better: "higher", On: onShard},

	{Name: "runner.dispatch_us_per_run", Unit: "us", Better: "lower", On: onIngest},
	{Name: "runner.mallocs_per_run", Unit: "count", Better: "lower", On: onIngest},

	{Name: "api.expand_ms", Unit: "ms", Better: "lower", On: onIngest},
	{Name: "api.expand_mb_per_run", Unit: "MB", Better: "lower", On: onIngest},
	{Name: "api.convert_us_per_run", Unit: "us", Better: "lower", On: onIngest},

	{Name: "store.encode_us_per_run", Unit: "us", Better: "lower", On: onIngest},
	{Name: "store.commit_us_per_run", Unit: "us", Better: "lower", On: onIngest},
	{Name: "store.ingest_runs_per_s", Unit: "1/s", Better: "higher", On: onIngest},
	{Name: "store.bytes_per_run", Unit: "B", Better: "lower", Exact: true, On: onDaemons},
	{Name: "store.open_ms", Unit: "ms", Better: "lower", On: onQuery},
	{Name: "store.cache_open_us", Unit: "us", Better: "lower", On: onQuery},
	{Name: "store.point_query_us", Unit: "us", Better: "lower", On: onQuery},
	{Name: "store.scan_us_per_block", Unit: "us", Better: "lower", On: onQuery},
	{Name: "store.bytes_read_scan", Unit: "B", Better: "lower", Exact: true, On: onQuery},
	{Name: "store.live_point_query_us", Unit: "us", Better: "lower", On: onQuery},

	{Name: "serve.submit_ack_ms", Unit: "ms", Better: "lower", On: onIngest},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower", On: onIngest},
	{Name: "serve.run_phase_runs_per_s", Unit: "1/s", Better: "higher", On: onIngest},
	{Name: "serve.results_replay_rows_per_s", Unit: "1/s", Better: "higher", On: onIngest},
	{Name: "serve.live_query_ms_p50", Unit: "ms", Better: "lower", On: onIngest},
	{Name: "serve.http_overhead_point_us", Unit: "us", Better: "lower", On: onQuery},
	{Name: "serve.query_point_ms_p99", Unit: "ms", Better: "lower", On: onQuery},
	{Name: "serve.ndjson_rows_per_s", Unit: "1/s", Better: "higher", On: onQuery},
	{Name: "serve.query_cross_ms_p50", Unit: "ms", Better: "lower", On: onQuery},
	{Name: "serve.metrics_scrape_ms", Unit: "ms", Better: "lower", On: onDaemons},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", On: onAll},
	{Name: "bench.allocs_per_kevent", Unit: "count", Better: "lower", On: onSims},
	{Name: "bench.closed_form_relerr", Unit: "ratio", Better: "lower", Exact: true, On: onChain},
}

func findMetric(name string) *metricDef {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for i := range defs {
			if defs[i].Name == name {
				return &defs[i]
			}
		}
	}
	return nil
}

// benchmarkJSON renders the catalogue as the root BENCHMARK.json: exactly
// the keys of the driver's contract, so the file is generated from the one
// table the program itself reports from (a test holds the two equal).
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.DriverBound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench: render BENCHMARK.json: %w", err)
	}
	return append(b, '\n'), nil
}
