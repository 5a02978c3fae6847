package store

import (
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Segment is one run's worth of blocks, built and compressed on the worker
// that ran the job — the expensive half of ingestion happens in parallel,
// off the writer's critical section. A Segment belongs to one goroutine;
// hand it to Writer.Commit (or Append) exactly once.
type Segment struct {
	meta RunMeta
	opts Options
	// blocks in append order. The order is deterministic: callers add in a
	// fixed sequence and each Add* splits rows in row order.
	blocks []encBlock
	err    error
}

// push seals raw into a block and appends it.
func (s *Segment) push(sl slot, raw []byte) {
	if s.err != nil {
		return
	}
	sl.expHash = hashStr(s.meta.Experiment)
	sl.sweep = uint32(s.meta.Sweep)
	b, err := seal(sl, s.opts.Compression, raw)
	if err != nil {
		s.err = err
		return
	}
	s.blocks = append(s.blocks, b)
}

// AddSeries appends a named series' points, split into blocks of at most
// Options.BlockRows so time-window queries can skip within the series. An
// empty series adds nothing.
func (s *Segment) AddSeries(name string, pts []metrics.Point) {
	for len(pts) > 0 && s.err == nil {
		n := len(pts)
		if n > s.opts.BlockRows {
			n = s.opts.BlockRows
		}
		chunk := pts[:n]
		sl := slot{
			kind:     KindSeries,
			rows:     uint32(n),
			nameHash: hashStr(name),
			tMin:     chunk[0].T,
			tMax:     chunk[n-1].T,
		}
		s.push(sl, encodeSeriesBlock(s.meta, name, chunk))
		pts = pts[n:]
	}
}

// AddCounters appends the run's telemetry snapshot as one block stamped at
// the run's end time. Rows are sorted by name, so bytes do not depend on
// map iteration order. A nil or empty snapshot adds nothing.
func (s *Segment) AddCounters(snap map[string]uint64) {
	if len(snap) == 0 || s.err != nil {
		return
	}
	names := sortedKeys(snap)
	sl := slot{
		kind: KindCounters,
		rows: uint32(len(names)),
		tMin: s.meta.End,
		tMax: s.meta.End,
	}
	s.push(sl, encodeCountersBlock(s.meta, names, snap))
}

// AddSummary appends the run's scalar summary metrics as one block stamped
// at the run's end time, rows sorted by name.
func (s *Segment) AddSummary(summary map[string]float64) {
	if len(summary) == 0 || s.err != nil {
		return
	}
	names := sortedKeys(summary)
	sl := slot{
		kind: KindSummary,
		rows: uint32(len(names)),
		tMin: s.meta.End,
		tMax: s.meta.End,
	}
	s.push(sl, encodeSummaryBlock(s.meta, names, summary))
}

// AddTrace appends flight-recorder events, split into blocks of at most
// Options.BlockRows. The events are one chronological sequence handed over
// as consecutive runs — Tracer.Retained's two ring halves, or a single
// slice — and are encoded in place, never gathered into one. When every
// event in a block shares one component the slot is keyed by it, so
// component-filtered queries skip single-component blocks without
// decompressing; mixed blocks get nameHash 0 (never skipped by a component
// filter).
func (s *Segment) AddTrace(runs ...[]trace.Event) {
	for s.err == nil {
		var chunk [][]trace.Event
		chunk, runs = splitEvents(runs, s.opts.BlockRows)
		if len(chunk) == 0 {
			return
		}
		last := chunk[len(chunk)-1]
		sl := slot{
			kind: KindTrace,
			tMin: chunk[0][0].T,
			tMax: last[len(last)-1].T,
		}
		single := chunk[0][0].Component
		for _, events := range chunk {
			sl.rows += uint32(len(events))
			for i := 0; i < len(events) && single != ""; i++ {
				if events[i].Component != single {
					single = ""
				}
			}
		}
		if single != "" {
			sl.nameHash = hashStr(single)
		}
		s.push(sl, encodeTraceBlock(s.meta, chunk))
	}
}

// splitEvents cuts the first n events (all of them when there are fewer)
// off a sequence of event runs: head holds them as non-empty runs, tail
// what follows. The caller's slice of runs is left as it was.
func splitEvents(runs [][]trace.Event, n int) (head, tail [][]trace.Event) {
	for len(runs) > 0 && n > 0 {
		r := runs[0]
		if len(r) > n {
			head = append(head, r[:n])
			return head, append([][]trace.Event{r[n:]}, runs[1:]...)
		}
		if len(r) > 0 {
			head = append(head, r)
			n -= len(r)
		}
		runs = runs[1:]
	}
	return head, runs
}
