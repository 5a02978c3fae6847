// Package telemetry is the counter layer of the observability stack: a
// per-engine registry of named uint64 counters and high-water gauges that
// hot components bump through pre-resolved handles.
//
// The design constraints come from the simulator's performance contract
// (DESIGN.md §9):
//
//   - Free when off. A nil *Registry hands out zero-value handles whose
//     methods are no-ops on a nil entry — the same pattern as the nil
//     *trace.Tracer — so components increment unconditionally and a
//     telemetry-disabled run pays one predictable branch per event.
//   - Near-free when on. Handles are resolved once at build time
//     (Registry.Counter / Registry.Gauge); the hot path is a plain uint64
//     add on a pre-resolved pointer. No map lookups, no atomics, no
//     allocations after setup.
//   - Single-goroutine, like the engine. A Registry belongs to exactly one
//     experiment run, which owns exactly one goroutine at a time (the
//     one-engine-per-goroutine contract). Cross-run aggregation happens on
//     snapshots, never on live registries, so the counters need no locking
//     and the race detector enforces the contract for free.
//   - Deterministic aggregation. Snapshots merge with commutative,
//     associative operations only — sum for counters, max for gauges — so
//     fleet totals are bit-identical no matter the worker count or job
//     completion order (the determinism test in internal/runner checks
//     this).
//
// Naming convention: dotted lowercase paths, component first
// ("link.cells_sent", "tcp.retransmits", "engine.events_fired"). Gauge
// names end in "_peak"; Merge keys its max-vs-sum decision off that suffix
// so snapshots stay plain map[string]uint64 end to end.
package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
)

// PeakSuffix marks gauge names. Snapshot values whose name carries this
// suffix aggregate by max; everything else aggregates by sum.
const PeakSuffix = "_peak"

// entry is one registered quantity. Counter and Gauge handles point at it;
// the value lives here so that idempotent re-registration (two links both
// asking for "link.cells_sent") shares one accumulator.
type entry struct {
	name string
	v    uint64
}

// Registry holds the counters of one experiment run. The zero value is not
// usable; call New. A nil *Registry is valid and free: it hands out
// zero-value handles and nil snapshots.
type Registry struct {
	byName  map[string]*entry
	entries []*entry // registration-ordered; Snapshot sorts by name
	hists   []*histogram
	histBy  map[string]*histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*entry), histBy: make(map[string]*histogram)}
}

// resolve returns the entry for name, creating it on first use.
func (r *Registry) resolve(name string) *entry {
	if e, ok := r.byName[name]; ok {
		return e
	}
	e := &entry{name: name}
	r.byName[name] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter returns a pre-resolved handle for a monotonically increasing
// count. Calling it twice with one name returns handles sharing one
// accumulator, so instances of a component class aggregate naturally. On a
// nil registry it returns the inert zero handle.
func (r *Registry) Counter(name string) Counter {
	if r == nil {
		return Counter{}
	}
	if strings.HasSuffix(name, PeakSuffix) {
		panic(fmt.Sprintf("telemetry: counter %q uses the gauge suffix %q", name, PeakSuffix))
	}
	return Counter{e: r.resolve(name)}
}

// Gauge returns a pre-resolved handle for a high-water mark. The name must
// end in PeakSuffix so that Merge aggregates it by max. On a nil registry it
// returns the inert zero handle.
func (r *Registry) Gauge(name string) Gauge {
	if r == nil {
		return Gauge{}
	}
	if !strings.HasSuffix(name, PeakSuffix) {
		panic(fmt.Sprintf("telemetry: gauge %q must end in %q", name, PeakSuffix))
	}
	return Gauge{e: r.resolve(name)}
}

// Counter is a handle to a sum-aggregated quantity. The zero value (from a
// nil registry) is inert: Add and Inc are no-ops, Value is zero.
type Counter struct{ e *entry }

// Add bumps the counter by n. A plain add — no atomics — because the
// registry is single-goroutine like the engine it observes.
func (c Counter) Add(n uint64) {
	if c.e != nil {
		c.e.v += n
	}
}

// Inc bumps the counter by one.
func (c Counter) Inc() {
	if c.e != nil {
		c.e.v++
	}
}

// Gauge is a handle to a max-aggregated high-water mark. The zero value is
// inert.
type Gauge struct{ e *entry }

// Observe records v, keeping the maximum seen.
func (g Gauge) Observe(v uint64) {
	if g.e != nil && v > g.e.v {
		g.e.v = v
	}
}

// HistBuckets is the fixed number of log2 buckets a Histogram carries.
// Bucket 0 holds exact zeros; bucket i holds values in [2^(i-1), 2^i);
// the last bucket also absorbs everything larger. 40 buckets span a
// queue depth of one cell to a latency of ~9 simulated minutes in
// nanoseconds — everything this simulator measures.
const HistBuckets = 40

// histogram is the shared accumulator behind Histogram handles: a fixed
// bucket array, recorded into with one shift and two adds. sum accumulates
// the raw observed values so the Prometheus rendering can emit a real
// histogram _sum line instead of a lower-bound estimate.
type histogram struct {
	name   string
	sum    uint64
	counts [HistBuckets]uint64
}

// Histogram returns a pre-resolved handle for a log2-bucketed value
// distribution (queue depths, latencies). Like Counter, one name shares
// one accumulator across instances, and a nil registry returns the inert
// zero handle. The distribution surfaces in Snapshot as one plain counter
// per non-empty bucket, named "<name>.bNN" — sum-merged across runs like
// any counter, persisted and rendered with zero new plumbing.
func (r *Registry) Histogram(name string) Histogram {
	if r == nil {
		return Histogram{}
	}
	if strings.HasSuffix(name, PeakSuffix) {
		panic(fmt.Sprintf("telemetry: histogram %q uses the gauge suffix %q", name, PeakSuffix))
	}
	if h, ok := r.histBy[name]; ok {
		return Histogram{h: h}
	}
	h := &histogram{name: name}
	r.histBy[name] = h
	r.hists = append(r.hists, h)
	return Histogram{h: h}
}

// Histogram is a handle to a log2-bucketed distribution. The zero value is
// inert.
type Histogram struct{ h *histogram }

// Observe records v into its log2 bucket: one bits.Len64 and two adds, no
// branches on the bucket boundaries.
func (h Histogram) Observe(v uint64) {
	if h.h != nil {
		h.h.counts[BucketIndex(v)]++
		h.h.sum += v
	}
}

// Active reports whether the handle records anywhere. Emitters that must
// compute the observed value (a latency subtraction, a ring scan) gate on
// this so a telemetry-off run skips the computation, not just the store.
func (h Histogram) Active() bool { return h.h != nil }

// BucketIndex maps a value to its log2 bucket.
func BucketIndex(v uint64) int {
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketName formats the snapshot key of bucket i of a histogram.
func BucketName(name string, i int) string {
	return fmt.Sprintf("%s.b%02d", name, i)
}

// SumName formats the snapshot key carrying a histogram's summed
// observations. Like the ".bNN" bucket keys it is a plain sum-merged
// counter end to end (snapshot, merge, store); only the Prometheus
// rendering treats it specially. The ".sum" and ".bNN" suffixes are
// reserved for histograms — do not register counters with them.
func SumName(name string) string { return name + ".sum" }

// Snapshot copies the registry into a plain name→value map. A nil registry
// snapshots to nil. The copy is detached: later increments do not show
// through, which is what makes snapshots safe to merge across goroutines.
// Histograms contribute one entry per non-empty bucket; empty buckets are
// omitted (which buckets fill is as deterministic as the counts in them).
func (r *Registry) Snapshot() map[string]uint64 {
	if r == nil || (len(r.entries) == 0 && len(r.hists) == 0) {
		return nil
	}
	out := make(map[string]uint64, len(r.entries))
	for _, e := range r.entries {
		out[e.name] = e.v
	}
	for _, h := range r.hists {
		filled := false
		for i, c := range h.counts {
			if c != 0 {
				out[BucketName(h.name, i)] = c
				filled = true
			}
		}
		if filled {
			// The sum rides along whenever the histogram observed anything,
			// even if every observation was zero — _sum 0 with _count > 0 is
			// a valid histogram; a missing sum would read as no data.
			out[SumName(h.name)] = h.sum
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Merge folds src into dst: names ending in PeakSuffix aggregate by max,
// all others by sum. Both operations are commutative and associative, so
// merging snapshots in any order — sequential, parallel, sharded — yields
// identical totals. That property is the whole reason the convention is a
// name suffix rather than out-of-band type metadata: a snapshot stays a
// plain map that any consumer can merge correctly.
func Merge(dst, src map[string]uint64) {
	for k, v := range src {
		if strings.HasSuffix(k, PeakSuffix) {
			if v > dst[k] {
				dst[k] = v
			}
		} else {
			dst[k] += v
		}
	}
}

// AbsorbDelta folds a live registry's growth into dst: for every name in
// cur, counters (and histogram buckets, which snapshot as counters) gain
// cur−prev and peak gauges observe cur's value. prev must be the cur of
// the previous absorption (nil the first time). This is how a sharded
// run's coordinator accumulates per-shard registries into the caller's
// registry across repeated Run calls without double-counting: absorbing
// snapshots keeps the live per-shard registries single-goroutine, and the
// sorted iteration keeps dst's registration order deterministic.
func AbsorbDelta(dst *Registry, cur, prev map[string]uint64) {
	if dst == nil || len(cur) == 0 {
		return
	}
	for _, name := range Names(cur) {
		v := cur[name]
		if strings.HasSuffix(name, PeakSuffix) {
			dst.Gauge(name).Observe(v)
		} else if d := v - prev[name]; d > 0 {
			dst.Counter(name).Add(d)
		}
	}
}

// Names returns the snapshot's keys sorted, the iteration order for any
// rendered output (text report, Prometheus exposition, JSON golden).
func Names(snap map[string]uint64) []string {
	if len(snap) == 0 {
		return nil
	}
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// WriteText renders the snapshot as aligned "name value" lines in sorted
// order, the terminal form behind phantom-suite -telemetry.
func WriteText(w io.Writer, snap map[string]uint64, indent string) (int64, error) {
	var n int64
	for _, name := range Names(snap) {
		m, err := fmt.Fprintf(w, "%s%-40s %d\n", indent, name, snap[name])
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// bucketKey reports whether a snapshot key is a histogram bucket key
// "base.bNN", returning the base name and bucket index.
func bucketKey(name string) (base string, bucket int, ok bool) {
	if len(name) < 5 || name[len(name)-4] != '.' || name[len(name)-3] != 'b' {
		return "", 0, false
	}
	d1, d2 := name[len(name)-2], name[len(name)-1]
	if d1 < '0' || d1 > '9' || d2 < '0' || d2 > '9' {
		return "", 0, false
	}
	return name[:len(name)-4], int(d1-'0')*10 + int(d2-'0'), true
}

// WriteProm renders the snapshot in Prometheus text exposition format.
// Plain counters and peaks land in a single family with the dotted name as
// a label — sidestepping Prometheus's metric-name charset without a lossy
// sanitization pass, and keeping the family stable as components add
// counters:
//
//	phantom_counter{name="link.cells_sent"} 123456
//
// Histogram snapshot keys ("base.bNN" buckets plus the "base.sum" total —
// see Registry.Histogram) are recognized and re-assembled into a native
// Prometheus histogram, cumulative buckets and all, so queue-depth and
// latency distributions work with histogram_quantile out of the box:
//
//	phantom_hist_bucket{name="link.queue_depth_cells",le="1"} 5
//	phantom_hist_bucket{name="link.queue_depth_cells",le="+Inf"} 9
//	phantom_hist_sum{name="link.queue_depth_cells"} 31
//	phantom_hist_count{name="link.queue_depth_cells"} 9
//
// Observations are integers, so bucket i's inclusive le bound is 2^i−1
// (bucket 0 holds exact zeros: le="0"); the overflow bucket folds into
// le="+Inf". Extra labels (experiment id, run state) are rendered on every
// sample of both families.
func WriteProm(w io.Writer, snap map[string]uint64, labels map[string]string) (int64, error) {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var lb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&lb, ",%s=%q", k, labels[k])
	}
	extra := lb.String()

	names := Names(snap)
	// Histogram bases, discovered from the bucket keys; a ".sum" key only
	// counts as histogram data when its base has at least one bucket.
	hists := map[string][]int{}
	for _, name := range names {
		if base, b, ok := bucketKey(name); ok {
			hists[base] = append(hists[base], b)
		}
	}

	var n int64
	emit := func(format string, args ...any) error {
		m, err := fmt.Fprintf(w, format, args...)
		n += int64(m)
		return err
	}
	if err := emit("# TYPE phantom_counter untyped\n"); err != nil {
		return n, err
	}
	for _, name := range names {
		if _, _, ok := bucketKey(name); ok {
			continue
		}
		if base, ok := strings.CutSuffix(name, ".sum"); ok && hists[base] != nil {
			continue
		}
		if err := emit("phantom_counter{name=%q%s} %d\n", name, extra, snap[name]); err != nil {
			return n, err
		}
	}
	if len(hists) == 0 {
		return n, nil
	}
	if err := emit("# TYPE phantom_hist histogram\n"); err != nil {
		return n, err
	}
	bases := make([]string, 0, len(hists))
	for base := range hists {
		bases = append(bases, base)
	}
	sort.Strings(bases)
	for _, base := range bases {
		buckets := hists[base]
		sort.Ints(buckets)
		var cum uint64
		for _, b := range buckets {
			cum += snap[BucketName(base, b)]
			if b >= HistBuckets-1 {
				continue // the overflow bucket is the +Inf line below
			}
			le := "0"
			if b > 0 {
				le = fmt.Sprint(uint64(1)<<uint(b) - 1)
			}
			if err := emit("phantom_hist_bucket{name=%q,le=%q%s} %d\n", base, le, extra, cum); err != nil {
				return n, err
			}
		}
		if err := emit("phantom_hist_bucket{name=%q,le=\"+Inf\"%s} %d\n", base, extra, cum); err != nil {
			return n, err
		}
		if err := emit("phantom_hist_sum{name=%q%s} %d\n", base, extra, snap[SumName(base)]); err != nil {
			return n, err
		}
		if err := emit("phantom_hist_count{name=%q%s} %d\n", base, extra, cum); err != nil {
			return n, err
		}
	}
	return n, nil
}
