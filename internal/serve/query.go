package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"

	"repro/internal/api"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// The analytics plane: every campaign the daemon has ever run (or adopted
// from its data root) is queryable in place. Per-job endpoints stream
// NDJSON rows straight from the phantomdb block index — the store query is
// parsed from the URL, pushdown skips non-matching blocks without
// decompression, and the scan's work lands in the Phantom-Scan-Stats
// trailer plus the phantom_query_* counters on /metrics. A running job is
// served through the store's live-read mode: all sealed files answer while
// the writer appends, with FilesInProgress flagging the growing tail.

// queryStats accumulates daemon-lifetime analytics counters, rendered as
// phantom_query_* on /metrics. Guarded by Server.mu.
type queryStats struct {
	requests      uint64
	errors        uint64
	filesSkipped  uint64
	blocksScanned uint64
	blocksSkipped uint64
	bytesRead     uint64
	sealedOpens   uint64 // campaign directory listings: terminal jobs
	liveOpens     uint64 // and running ones
}

// openJobStore returns a reader over the job's campaign. A terminal job's
// store is sealed, so it is opened once, strictly, and every query scans a
// clone: no directory listing, no stat. That stays correct or loud: a scan
// CRC-checks every block against its slot and opens its files by path. A
// running job is re-opened live per query. An open error is not kept.
func (s *Server) openJobStore(j *job) (*store.Reader, error) {
	dir, state, sealed := j.storeInfo()
	switch {
	case dir == "":
		return nil, fmt.Errorf("job %s has no store (daemon runs without -data, or the job has not opened one)", j.id)
	case !state.Terminal():
		s.count(&s.queries.liveOpens)
		return s.index.OpenLive(dir)
	case sealed == nil:
		var err error
		if sealed, err = s.openSealed(j, dir); err != nil {
			return nil, err
		}
	}
	return sealed.Clone(), nil
}

// openSealed opens a terminal job's campaign strictly and keeps it for
// every later query. Concurrent first queries may both open; the first
// to finish is kept.
func (s *Server) openSealed(j *job, dir string) (*store.Reader, error) {
	s.count(&s.queries.sealedOpens)
	rd, err := s.index.Open(dir)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sealed == nil {
		j.sealed = rd
	}
	return j.sealed, nil
}

// count increments one of the query counters.
func (s *Server) count(n *uint64) {
	s.mu.Lock()
	*n++
	s.mu.Unlock()
}

// storeInfo snapshots the store fields the query plane needs.
func (j *job) storeInfo() (dir string, state api.JobState, sealed *store.Reader) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.storeDir, j.state, j.sealed
}

// queryJob resolves the {id} job and its store query, or writes the
// error. A nil job signals the handler to return.
func (s *Server) queryJob(w http.ResponseWriter, r *http.Request) (*job, store.Query, *store.Reader) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return nil, store.Query{}, nil
	}
	q, err := api.ParseStoreQuery(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return nil, store.Query{}, nil
	}
	rd, err := s.openJobStore(j)
	if err != nil {
		writeErr(w, http.StatusConflict, err.Error())
		return nil, store.Query{}, nil
	}
	return j, q, rd
}

// ndjsonStream sets up a chunked NDJSON response whose trailer will carry
// the scan stats, and returns a finish func that writes the trailer and
// folds the stats into the daemon counters.
func (s *Server) ndjsonStream(w http.ResponseWriter) (finish func(api.QueryStats)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Trailer", api.TrailerScanStats)
	w.WriteHeader(http.StatusOK)
	return func(stats api.QueryStats) {
		b, _ := json.Marshal(stats)
		w.Header().Set(api.TrailerScanStats, string(b))
		s.mu.Lock()
		s.queries.requests++
		s.queries.filesSkipped += uint64(stats.FilesSkipped)
		s.queries.blocksScanned += uint64(stats.BlocksScanned)
		s.queries.blocksSkipped += uint64(stats.BlocksSkipped)
		s.queries.bytesRead += uint64(stats.BytesRead)
		s.mu.Unlock()
	}
}

// queryFailed logs a mid-stream failure into the body (the status line
// already went out) and counts it.
func (s *Server) queryFailed(w http.ResponseWriter, err error) {
	fmt.Fprintf(w, "%s\n", api.MarshalError(err.Error()))
	s.count(&s.queries.errors)
}

func (s *Server) handleQuerySeries(w http.ResponseWriter, r *http.Request) {
	streamRows(s, w, r, (*store.Reader).Series, encoded(func(c store.SeriesChunk) api.SeriesRow {
		return api.SeriesRow{Experiment: c.Experiment, Sweep: c.Sweep, Name: c.Name, Points: c.Points}
	}))
}

// handleQuerySummary streams summary rows, the bulk of a sweep's analysis,
// appended without reflection.
func (s *Server) handleQuerySummary(w http.ResponseWriter, r *http.Request) {
	streamRows(s, w, r, (*store.Reader).Summaries, api.AppendSummaryRow)
}

func (s *Server) handleQueryCounters(w http.ResponseWriter, r *http.Request) {
	streamRows(s, w, r, (*store.Reader).Counters, encoded(func(rc store.RunCounters) api.CountersRow {
		return api.CountersRow{Experiment: rc.Experiment, Sweep: rc.Sweep, AtNS: int64(rc.At), Counters: rc.Map()}
	}))
}

func (s *Server) handleQueryTrace(w http.ResponseWriter, r *http.Request) {
	streamRows(s, w, r, (*store.Reader).Trace, encoded(func(c store.TraceChunk) api.TraceRow {
		return api.TraceRow{Experiment: c.Experiment, Sweep: c.Sweep, Events: c.Events}
	}))
}

// streamRows serves one per-job query as NDJSON: scan yields the job
// reader's items, row appends each one's line to a per-request buffer,
// and the buffer goes out one Write per row.
func streamRows[C any](s *Server, w http.ResponseWriter, r *http.Request,
	scan func(*store.Reader, store.Query, func(C) error) error,
	row func([]byte, C) ([]byte, error)) {
	_, q, rd := s.queryJob(w, r)
	if rd == nil {
		return
	}
	finish := s.ndjsonStream(w)
	var buf []byte
	err := scan(rd, q, func(c C) error {
		var err error
		if buf, err = row(buf[:0], c); err != nil {
			return err
		}
		_, err = w.Write(buf)
		return err
	})
	if err != nil {
		s.queryFailed(w, err)
		return
	}
	finish(api.QueryStats{ScanStats: rd.Stats()})
}

// encoded appends a row as json.Encoder writes it: its JSON, then a
// newline.
func encoded[C, R any](row func(C) R) func([]byte, C) ([]byte, error) {
	return func(b []byte, c C) ([]byte, error) {
		line, err := json.Marshal(row(c))
		return append(append(b, line...), '\n'), err
	}
}

// handleCrossQuery fans one query over many job stores: kind=summary
// aggregates run summaries per (experiment, sweep, metric), kind=counters
// merges telemetry snapshots per (experiment, sweep) with the store's
// merge semantics (sum counters, max _peak gauges). jobs= selects a CSV of
// job IDs; absent, every job with a store is visited except failed ones,
// whose stores did not seal or did not open (their status says why).
func (s *Server) handleCrossQuery(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	kind := params.Get("kind")
	if kind == "" {
		kind = "summary"
	}
	if kind != "summary" && kind != "counters" {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad kind %q (want summary or counters)", kind))
		return
	}
	q, err := api.ParseStoreQuery(params)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	all := params.Get("jobs") == ""
	jobs, err := s.selectJobs(params.Get("jobs"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}

	var stats api.QueryStats
	type aggKey struct {
		exp    string
		sweep  int
		metric string
	}
	type agg struct {
		runs     int
		sum      float64
		min, max float64
	}
	aggs := map[aggKey]*agg{}
	type cKey struct {
		exp   string
		sweep int
	}
	merged := map[cKey]*api.CountersRow{}

	for _, j := range jobs {
		if dir, state, _ := j.storeInfo(); dir == "" || (all && state == api.JobFailed) {
			continue
		}
		rd, err := s.openJobStore(j)
		if err != nil {
			writeErr(w, http.StatusConflict, fmt.Sprintf("%s: %v", j.id, err))
			return
		}
		stats.Jobs++
		switch kind {
		case "summary":
			err = rd.Summaries(q, func(rs store.RunSummary) error {
				for i, metric := range rs.Names {
					v := rs.Values[i]
					k := aggKey{rs.Experiment, rs.Sweep, metric}
					a, ok := aggs[k]
					if !ok {
						a = &agg{min: math.Inf(1), max: math.Inf(-1)}
						aggs[k] = a
					}
					a.runs++
					a.sum += v
					a.min = math.Min(a.min, v)
					a.max = math.Max(a.max, v)
				}
				return nil
			})
		case "counters":
			err = rd.Counters(q, func(rc store.RunCounters) error {
				k := cKey{rc.Experiment, rc.Sweep}
				row, ok := merged[k]
				if !ok {
					row = &api.CountersRow{Experiment: rc.Experiment, Sweep: rc.Sweep, Counters: map[string]uint64{}}
					merged[k] = row
				}
				row.Runs++
				telemetry.Merge(row.Counters, rc.Map())
				return nil
			})
		}
		if err != nil {
			writeErr(w, http.StatusInternalServerError, fmt.Sprintf("%s: %v", j.id, err))
			s.count(&s.queries.errors)
			return
		}
		stats.Add(rd.Stats())
	}

	finish := s.ndjsonStream(w)
	enc := json.NewEncoder(w)
	switch kind {
	case "summary":
		keys := make([]aggKey, 0, len(aggs))
		for k := range aggs {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.exp != b.exp {
				return a.exp < b.exp
			}
			if a.sweep != b.sweep {
				return a.sweep < b.sweep
			}
			return a.metric < b.metric
		})
		for _, k := range keys {
			a := aggs[k]
			if err := enc.Encode(api.AggregateRow{
				Experiment: k.exp, Sweep: k.sweep, Metric: k.metric,
				Runs: a.runs, Sum: a.sum, Mean: a.sum / float64(a.runs),
				Min: a.min, Max: a.max,
			}); err != nil {
				s.queryFailed(w, err)
				return
			}
		}
	case "counters":
		keys := make([]cKey, 0, len(merged))
		for k := range merged {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.exp != b.exp {
				return a.exp < b.exp
			}
			return a.sweep < b.sweep
		})
		for _, k := range keys {
			if err := enc.Encode(*merged[k]); err != nil {
				s.queryFailed(w, err)
				return
			}
		}
	}
	finish(stats)
}

// selectJobs resolves the jobs= CSV (empty: every job, in submission
// order).
func (s *Server) selectJobs(csv string) ([]*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if csv == "" {
		return append([]*job(nil), s.order...), nil
	}
	var out []*job
	for _, id := range strings.Split(csv, ",") {
		id = strings.TrimSpace(id)
		j, ok := s.jobs[id]
		if !ok {
			return nil, fmt.Errorf("no such job %q", id)
		}
		out = append(out, j)
	}
	return out, nil
}

// promQueries appends the analytics counters to /metrics.
func (s *Server) promQueries(w io.Writer) {
	s.mu.Lock()
	q := s.queries
	s.mu.Unlock()
	fmt.Fprintf(w, "# TYPE phantom_query_requests untyped\n")
	fmt.Fprintf(w, "phantom_query_requests %d\n", q.requests)
	fmt.Fprintf(w, "phantom_query_errors %d\n", q.errors)
	fmt.Fprintf(w, "# TYPE phantom_query_files untyped\n")
	fmt.Fprintf(w, "phantom_query_files{result=\"skipped\"} %d\n", q.filesSkipped)
	fmt.Fprintf(w, "# TYPE phantom_query_blocks untyped\n")
	fmt.Fprintf(w, "phantom_query_blocks{result=\"scanned\"} %d\n", q.blocksScanned)
	fmt.Fprintf(w, "phantom_query_blocks{result=\"skipped\"} %d\n", q.blocksSkipped)
	fmt.Fprintf(w, "# TYPE phantom_query_bytes_read untyped\n")
	fmt.Fprintf(w, "phantom_query_bytes_read %d\n", q.bytesRead)
	fmt.Fprintf(w, "# TYPE phantom_query_campaign_opens untyped\n")
	fmt.Fprintf(w, "phantom_query_campaign_opens{mode=\"sealed\"} %d\n", q.sealedOpens)
	fmt.Fprintf(w, "phantom_query_campaign_opens{mode=\"live\"} %d\n", q.liveOpens)
}
