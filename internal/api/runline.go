package api

import (
	"slices"
	"strconv"
	"unicode/utf8"
)

// The results stream (GET /v1/jobs/{id}/results) carries one run line per
// run of a job, so a sweep pays the line's encode on the daemon and its
// decode on the client once per point. Both ends do it by hand here, held
// to encoding/json: the writer is byte-identical to json.Encoder, and the
// reader accepts only the canonical lines the writer emits, leaving every
// other line to json.Unmarshal. Each end keeps the previous line's keys.

// RunLineWriter appends run lines without reflection: exactly the bytes
// json.Encoder.Encode writes for ResultLine{Run: r} — fields in
// declaration order with omitempty, map keys in bytewise order, strings
// HTML-escaped, floats in encoding/json's format, then a newline. It keeps
// the previous line's sorted keys of each map: the runs of one job mostly
// carry the same metric and counter names, and a map holding exactly those
// keys needs no sort. Use one writer per stream; the zero value is ready.
type RunLineWriter struct {
	summaryKeys, counterKeys []string
}

// AppendRunLine appends r's run line to b. It refuses NaN and ±Inf where
// encoding/json does, with its error, and then returns b as it was given.
func (w *RunLineWriter) AppendRunLine(b []byte, r *RunResult) ([]byte, error) {
	start := len(b)
	b = append(b, `{"run":{"id":`...)
	b = appendString(b, r.ID)
	if r.Sweep != 0 {
		b = append(b, `,"sweep":`...)
		b = strconv.AppendInt(b, int64(r.Sweep), 10)
	}
	if r.Seed != 0 {
		b = append(b, `,"seed":`...)
		b = strconv.AppendUint(b, r.Seed, 10)
	}
	b = append(b, `,"wall_ms":`...)
	var err error
	if b, err = appendFloat(b, r.WallMS); err != nil {
		return b[:start], err
	}
	b = append(b, `,"sim_nanos":`...)
	b = strconv.AppendInt(b, r.SimNS, 10)
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, r.Error)
	}
	if r.Canceled {
		b = append(b, `,"canceled":true`...)
	}
	if r.Golden != "" {
		b = append(b, `,"golden":`...)
		b = appendString(b, r.Golden)
	}
	b = appendStrings(b, `,"drifts":`, r.Drifts)
	if len(r.Summary) > 0 {
		b = append(b, `,"summary":`...)
		if b, w.summaryKeys, err = appendObject(b, r.Summary, w.summaryKeys, appendFloat); err != nil {
			return b[:start], err
		}
	}
	if len(r.Counters) > 0 {
		b = append(b, `,"counters":`...)
		b, w.counterKeys, _ = appendObject(b, r.Counters, w.counterKeys, appendUint)
	}
	b = appendStrings(b, `,"notes":`, r.Notes)
	b = appendStrings(b, `,"violations":`, r.Violations)
	return append(b, "}}\n"...), nil
}

// appendObject appends m as a JSON object in bytewise key order, writing
// each value with value. keys is the previous object's key order: when m
// holds exactly those keys (as many, each present) it is m's order too.
// Otherwise m's keys are sorted into keys' storage. It returns keys in the
// order written.
func appendObject[V any](b []byte, m map[string]V, keys []string, value func([]byte, V) ([]byte, error)) ([]byte, []string, error) {
	if len(keys) == len(m) {
		out, ok, err := appendPairs(b, m, keys, value)
		if ok || err != nil {
			return out, keys, err
		}
	}
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b, _, err := appendPairs(b, m, keys, value)
	return b, keys, err
}

// appendPairs appends {"k":v,...} for keys in order; ok is false when a
// key is not in m.
func appendPairs[V any](b []byte, m map[string]V, keys []string, value func([]byte, V) ([]byte, error)) (_ []byte, ok bool, err error) {
	b = append(b, '{')
	for i, k := range keys {
		v, ok := m[k]
		if !ok {
			return b, false, nil
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		if b, err = value(b, v); err != nil {
			return b, false, err
		}
	}
	return append(b, '}'), true, nil
}

func appendUint(b []byte, v uint64) ([]byte, error) { return strconv.AppendUint(b, v, 10), nil }

// appendStrings appends field and ss as a JSON array, or nothing for an
// empty ss (omitempty).
func appendStrings(b []byte, field string, ss []string) []byte {
	if len(ss) == 0 {
		return b
	}
	b = append(b, field...)
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// runDecoder reads run lines back without reflection. It accepts exactly
// the canonical form RunLineWriter writes — the known keys in declaration
// order, strings with no escape and valid UTF-8, numbers in the JSON
// grammar (integers for the integer fields), map keys bytewise strictly
// increasing, no whitespace — and reports false on anything else, which
// the caller then hands to json.Unmarshal: the report line, an escaped
// string, null, an unknown key. What it accepts it decodes to exactly what
// json.Unmarshal would (FuzzResultLine holds it to that).
//
// A decoder keeps the previous line's map keys, and reuses a key whose
// bytes repeat instead of allocating it again, as the store's summary
// columns do. Maps and slices are fresh on every line: a caller may keep
// them.
type runDecoder struct {
	b                        []byte // the rest of the line; nil once it failed
	summaryKeys, counterKeys []string
}

// decode decodes line into r and reports whether line was canonical.
func (d *runDecoder) decode(line []byte, r *RunResult) bool {
	d.b = line
	*r = RunResult{}
	d.must(`{"run":{"id":`)
	r.ID = string(d.str())
	if d.lit(`,"sweep":`) {
		r.Sweep = int(d.integer(strconv.IntSize))
	}
	if d.lit(`,"seed":`) {
		r.Seed = d.unsigned()
	}
	d.must(`,"wall_ms":`)
	r.WallMS = d.float()
	d.must(`,"sim_nanos":`)
	r.SimNS = d.integer(64)
	if d.lit(`,"error":`) {
		r.Error = string(d.str())
	}
	r.Canceled = d.lit(`,"canceled":true`)
	if d.lit(`,"golden":`) {
		r.Golden = string(d.str())
	}
	if d.lit(`,"drifts":`) {
		r.Drifts = d.strs()
	}
	if d.lit(`,"summary":`) {
		r.Summary, d.summaryKeys = object(d, d.summaryKeys, (*runDecoder).float)
	}
	if d.lit(`,"counters":`) {
		r.Counters, d.counterKeys = object(d, d.counterKeys, (*runDecoder).unsigned)
	}
	if d.lit(`,"notes":`) {
		r.Notes = d.strs()
	}
	if d.lit(`,"violations":`) {
		r.Violations = d.strs()
	}
	return d.lit("}}") && len(d.b) == 0
}

// fail marks the line as not canonical: every later step fails too.
func (d *runDecoder) fail() { d.b = nil }

// lit consumes s if the line continues with it.
func (d *runDecoder) lit(s string) bool {
	if len(d.b) < len(s) || string(d.b[:len(s)]) != s {
		return false
	}
	d.b = d.b[len(s):]
	return true
}

// must consumes s or fails the line.
func (d *runDecoder) must(s string) {
	if !d.lit(s) {
		d.fail()
	}
}

// str consumes a string with no escape and valid UTF-8 and returns its
// bytes, which alias the line.
func (d *runDecoder) str() []byte {
	i := 1
	for i < len(d.b) && strPlain[d.b[i]] {
		i++
	}
	if len(d.b) == 0 || d.b[0] != '"' || i == len(d.b) || d.b[i] != '"' || !utf8.Valid(d.b[1:i]) {
		d.fail()
		return nil
	}
	s := d.b[1:i]
	d.b = d.b[i+1:]
	return s
}

// strPlain marks the bytes a string can hold as themselves: all but
// control characters, the quote and the backslash.
var strPlain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// strs consumes an array of strings.
func (d *runDecoder) strs() []string {
	d.must("[")
	out := []string{}
	if d.lit("]") {
		return out
	}
	for {
		s := d.str()
		if d.b == nil {
			return nil
		}
		out = append(out, string(s))
		if d.lit("]") {
			return out
		}
		d.must(",")
	}
}

// object consumes a JSON object whose keys are bytewise strictly
// increasing into a fresh map, reading each value with value. keys holds
// the previous line's keys of this map: a key whose bytes repeat the one
// at its index is taken from there. It returns the map and this line's
// keys.
func object[V any](d *runDecoder, keys []string, value func(*runDecoder) V) (map[string]V, []string) {
	d.must("{")
	m := make(map[string]V, len(keys))
	if d.lit("}") {
		return m, keys[:0]
	}
	for i := 0; d.b != nil; i++ {
		raw := d.str()
		d.must(":")
		switch {
		case d.b == nil:
		case i > 0 && string(raw) <= keys[i-1]:
			d.fail()
		case i < len(keys) && string(raw) == keys[i]:
		case i < len(keys):
			keys[i] = string(raw)
		default:
			keys = append(keys, string(raw))
		}
		if d.b == nil {
			break
		}
		m[keys[i]] = value(d)
		if d.lit("}") {
			return m, keys[:i+1]
		}
		d.must(",")
	}
	return nil, keys
}

// number consumes a number in the JSON grammar — with frac false, only
// its integer part: -?(0|[1-9][0-9]*) — and returns its bytes.
func (d *runDecoder) number(frac bool) []byte {
	b, i := d.b, 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i += digits(b[i:])
	default:
		d.fail()
		return nil
	}
	if frac && i < len(b) && b[i] == '.' {
		n := digits(b[i+1:])
		if n == 0 {
			d.fail()
			return nil
		}
		i += 1 + n
	}
	if frac && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		n := digits(b[i:])
		if n == 0 {
			d.fail()
			return nil
		}
		i += n
	}
	d.b = b[i:]
	return b[:i]
}

// digits counts the leading decimal digits of b.
func digits(b []byte) int {
	n := 0
	for n < len(b) && '0' <= b[n] && b[n] <= '9' {
		n++
	}
	return n
}

// The value readers parse with the strconv call encoding/json makes, so a
// value out of range fails the line where json.Unmarshal reports an error.

func (d *runDecoder) float() float64 {
	raw := d.number(true)
	f, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		d.fail()
	}
	return f
}

func (d *runDecoder) integer(bits int) int64 {
	raw := d.number(false)
	n, err := strconv.ParseInt(string(raw), 10, bits)
	if err != nil {
		d.fail()
	}
	return n
}

func (d *runDecoder) unsigned() uint64 {
	raw := d.number(false)
	n, err := strconv.ParseUint(string(raw), 10, 64)
	if err != nil {
		d.fail()
	}
	return n
}
