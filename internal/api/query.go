package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// The analytics plane: GET /v1/jobs/{id}/{summary,series,counters,trace}
// stream NDJSON rows straight from a job's phantomdb block index, and
// GET /v1/query fans one query over many job stores. Every response ends
// with a Phantom-Scan-Stats trailer carrying the query's pushdown work,
// so clients can see how much of the campaign the index let them skip.

// TrailerScanStats is the HTTP trailer each analytics response carries:
// a QueryStats JSON object, written after the NDJSON body so it reflects
// the whole scan.
const TrailerScanStats = "Phantom-Scan-Stats"

// QueryStats is the trailer's JSON object: the scan statistics of every
// store the query read, after the job fan-out count.
type QueryStats struct {
	// Jobs is how many job stores a cross-job query visited (0 on
	// single-job endpoints).
	Jobs int `json:"jobs,omitempty"`
	store.ScanStats
}

// QueryValues encodes a store query as URL parameters — the exact inverse
// of ParseStoreQuery, so a query round-trips the wire unchanged and remote
// pushdown matches local pushdown block for block.
func QueryValues(q store.Query) url.Values {
	v := url.Values{}
	if q.Experiment != "" {
		v.Set("experiment", q.Experiment)
	}
	if q.Name != "" {
		v.Set("name", q.Name)
	}
	if q.Component != "" {
		v.Set("component", q.Component)
	}
	if q.Sweep >= 0 {
		v.Set("sweep", strconv.Itoa(q.Sweep))
	}
	if q.From != 0 {
		v.Set("from", strconv.FormatInt(int64(q.From), 10))
	}
	if q.To != 0 {
		v.Set("to", strconv.FormatInt(int64(q.To), 10))
	}
	return v
}

// parseSimTime accepts either raw simulated nanoseconds ("250000000") or a
// Go duration ("250ms") — the first is what QueryValues emits, the second
// is what a human types into curl.
func parseSimTime(s string) (sim.Time, error) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return sim.Time(n), nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("api: bad time %q (want nanoseconds or a duration like 250ms)", s)
	}
	return sim.Time(d), nil
}

// ParseStoreQuery decodes the analytics query parameters into a store
// query. Absent parameters keep their match-everything defaults (sweep:
// all points).
func ParseStoreQuery(v url.Values) (store.Query, error) {
	q := store.Query{
		Experiment: v.Get("experiment"),
		Name:       v.Get("name"),
		Component:  v.Get("component"),
		Sweep:      store.AnySweep,
	}
	if s := v.Get("sweep"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < store.AnySweep {
			return q, fmt.Errorf("api: bad sweep %q (want an index, or -1 for all)", s)
		}
		q.Sweep = n
	}
	var err error
	if s := v.Get("from"); s != "" {
		if q.From, err = parseSimTime(s); err != nil {
			return q, err
		}
	}
	if s := v.Get("to"); s != "" {
		if q.To, err = parseSimTime(s); err != nil {
			return q, err
		}
	}
	return q, nil
}

// --- NDJSON row shapes ---

// SeriesRow is one block's worth of one run's series points — the NDJSON
// row of /v1/jobs/{id}/series. A long series spans several rows, in time
// order.
type SeriesRow struct {
	Experiment string          `json:"experiment"`
	Sweep      int             `json:"sweep"`
	Name       string          `json:"name"`
	Points     []metrics.Point `json:"points"`
}

// SummaryRow is one run's scalar summary metrics — the NDJSON row of
// /v1/jobs/{id}/summary.
type SummaryRow struct {
	Experiment string             `json:"experiment"`
	Sweep      int                `json:"sweep"`
	AtNS       int64              `json:"at_ns"`
	Summary    map[string]float64 `json:"summary"`
}

// AppendSummaryRow appends rs as its SummaryRow without reflection:
// exactly the bytes json.Encoder.Encode writes for the row whose map holds
// rs's columns (fields in declaration order, strings HTML-escaped, floats
// in encoding/json's format, then a newline). The columns are already in
// the bytewise order encoding/json sorts map keys into, so each pair is
// written as it comes. It refuses NaN and ±Inf where encoding/json does,
// with its error. A full /summary stream is one row per run, so the
// per-row cost of reflection is what the stream paid; encoding/json stays
// the reference the tests hold this writer to, and the reader side
// decodes every row with it.
func AppendSummaryRow(b []byte, rs store.RunSummary) ([]byte, error) {
	b = append(b, `{"experiment":`...)
	b = appendString(b, rs.Experiment)
	b = append(b, `,"sweep":`...)
	b = strconv.AppendInt(b, int64(rs.Sweep), 10)
	b = append(b, `,"at_ns":`...)
	b = strconv.AppendInt(b, int64(rs.At), 10)
	b = append(b, `,"summary":{`...)
	for i, name := range rs.Names {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, name)
		b = append(b, ':')
		var err error
		if b, err = appendFloat(b, rs.Values[i]); err != nil {
			return b, err
		}
	}
	return append(b, "}}\n"...), nil
}

// CountersRow is one run's telemetry snapshot — the NDJSON row of
// /v1/jobs/{id}/counters — or, on the cross-job endpoint, the merge of
// Runs snapshots sharing (experiment, sweep).
type CountersRow struct {
	Experiment string            `json:"experiment"`
	Sweep      int               `json:"sweep"`
	AtNS       int64             `json:"at_ns,omitempty"`
	Runs       int               `json:"runs,omitempty"`
	Counters   map[string]uint64 `json:"counters"`
}

// appendString appends s as a JSON string. Printable ASCII other than the
// five characters encoding/json escapes (" \ < > &) and valid UTF-8 other
// than U+2028 and U+2029 are copied as is; a string holding anything else
// — a control character, one of those five, invalid UTF-8 — is left to
// json.Marshal, which cannot fail on a string.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; jsonPlain[c] {
			i++
			continue
		} else if c < utf8.RuneSelf {
			return appendMarshaled(b, s)
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return appendMarshaled(b, s)
		}
		i += size
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// jsonPlain marks the bytes encoding/json writes as themselves inside a
// string without looking further: printable ASCII other than " \ < > &.
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendMarshaled appends s as encoding/json writes it.
func appendMarshaled(b []byte, s string) []byte {
	q, _ := json.Marshal(s)
	return append(b, q...)
}

// appendFloat appends f as encoding/json does: the shortest decimal that
// reads back as f, in 'f' form inside [1e-6, 1e21) and 'e' form outside
// it, with a one-digit negative exponent's leading zero dropped (1e-07 is
// written 1e-7). NaN and ±Inf have no JSON form; the error is
// encoding/json's.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// TraceRow is one block's worth of one run's flight-recorder events — the
// NDJSON row of /v1/jobs/{id}/trace. Events use the trace JSONL wire
// shape, so they round-trip byte-identically through WriteJSONL.
type TraceRow struct {
	Experiment string        `json:"experiment"`
	Sweep      int           `json:"sweep"`
	Events     []trace.Event `json:"events"`
}

// AggregateRow is the cross-job summary aggregate: per (experiment,
// sweep, metric) over every selected job's runs.
type AggregateRow struct {
	Experiment string  `json:"experiment"`
	Sweep      int     `json:"sweep"`
	Metric     string  `json:"metric"`
	Runs       int     `json:"runs"`
	Sum        float64 `json:"sum"`
	Mean       float64 `json:"mean"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
}

// QuerySource answers store queries from somewhere: a local campaign
// directory (LocalSource) or a daemon's analytics endpoints
// (RemoteSource). phantom-trace renders either through the same printer,
// which is what makes -store and -remote output byte-identical.
type QuerySource interface {
	Series(q store.Query, fn func(store.SeriesChunk) error) error
	Counters(q store.Query, fn func(store.RunCounters) error) error
	Summaries(q store.Query, fn func(store.RunSummary) error) error
	Trace(q store.Query, fn func(store.TraceChunk) error) error
	// Stats reports the scan work accumulated across this source's queries.
	Stats() QueryStats
}

// LocalSource adapts a store reader to the QuerySource interface.
type LocalSource struct{ *store.Reader }

func (s LocalSource) Stats() QueryStats { return QueryStats{ScanStats: s.Reader.Stats()} }

// RemoteSource answers the same queries from a daemon job's analytics
// endpoints, decoding the NDJSON rows back into reader chunk types. Stats
// accumulate from the response trailers, so -scan-stats reports the
// daemon's pushdown, not the client's.
type RemoteSource struct {
	C *Client
	// Job is the daemon job whose store is queried.
	Job string

	stats QueryStats
}

func (s *RemoteSource) Series(q store.Query, fn func(store.SeriesChunk) error) error {
	return queryRows(s, "series", q, func(row SeriesRow) error {
		return fn(store.SeriesChunk{Experiment: row.Experiment, Sweep: row.Sweep, Name: row.Name, Points: row.Points})
	})
}

func (s *RemoteSource) Counters(q store.Query, fn func(store.RunCounters) error) error {
	return queryRows(s, "counters", q, func(row CountersRow) error {
		return fn(columns(row.Experiment, row.Sweep, row.AtNS, row.Counters))
	})
}

func (s *RemoteSource) Summaries(q store.Query, fn func(store.RunSummary) error) error {
	return queryRows(s, "summary", q, func(row SummaryRow) error {
		return fn(columns(row.Experiment, row.Sweep, row.AtNS, row.Summary))
	})
}

// columns rebuilds a row's name → value object as the store's sorted
// columns.
func columns[V float64 | uint64](exp string, sweep int, atNS int64, m map[string]V) store.Columns[V] {
	c := store.Columns[V]{Experiment: exp, Sweep: sweep, At: sim.Time(atNS), Names: make([]string, 0, len(m))}
	for name := range m {
		c.Names = append(c.Names, name)
	}
	slices.Sort(c.Names)
	c.Values = make([]V, len(c.Names))
	for i, name := range c.Names {
		c.Values[i] = m[name]
	}
	return c
}

func (s *RemoteSource) Trace(q store.Query, fn func(store.TraceChunk) error) error {
	return queryRows(s, "trace", q, func(row TraceRow) error {
		return fn(store.TraceChunk{Experiment: row.Experiment, Sweep: row.Sweep, Events: row.Events})
	})
}

func (s *RemoteSource) Stats() QueryStats { return s.stats }

// queryRows streams one endpoint's NDJSON rows into typed callbacks and
// folds the response trailer into the source's stats.
func queryRows[T any](s *RemoteSource, endpoint string, q store.Query, fn func(T) error) error {
	stats, err := s.C.QueryNDJSON(
		PathPrefix+"/jobs/"+s.Job+"/"+endpoint, QueryValues(q),
		decodeRow(fn))
	s.stats.Add(stats.ScanStats)
	return err
}

// decodeRow adapts a typed row callback to the raw-line stream.
func decodeRow[T any](fn func(T) error) func([]byte) error {
	return func(line []byte) error {
		var row T
		if err := json.Unmarshal(line, &row); err != nil {
			return fmt.Errorf("api: bad query row: %w", err)
		}
		return fn(row)
	}
}
