// Package trace is the flight recorder of the observability stack: a
// bounded ring of typed structured events (who, what, when, with which
// values) that a multi-million-event run can keep always-on and still
// answer "what happened around the drop at 218 ms" afterwards.
//
// Two properties make it cheap enough to leave enabled:
//
//   - A nil *Tracer is valid and free. Every method no-ops on nil, so hot
//     paths emit unconditionally — the same contract as telemetry handles.
//   - Emit stores typed fields, never formatted strings. The variadic
//     []Field does not escape Emit (the fields are copied by value into the
//     ring slot), so the call allocates nothing in steady state; formatting
//     happens only when an event is actually read (Detail, String,
//     WriteTo, JSONL export). The steady-state alloc test pins this.
//
// Like the engine it observes, a Tracer is single-goroutine; each
// experiment run owns its own.
package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// MaxFields is the number of typed fields one event can carry. Four covers
// every emitter in the tree (VC + kind, rate, window bounds); Emit drops
// extras rather than allocating.
const MaxFields = 4

// FieldKind discriminates the value slot a Field uses. Exported so
// re-serializers (the JSONL codec here, the columnar store) can switch on
// it without reflection.
type FieldKind uint8

// Kind 0 is left unused, so the zero Field is no kind's zero value.
const (
	FieldInt FieldKind = iota + 1
	FieldFloat
	FieldStr
)

// Field is one typed key/value attached to an event. Construct with I, F
// or S; the zero Field has no kind, and no encoder writes a value for it.
type Field struct {
	Key  string
	kind FieldKind
	i    int64
	f    float64
	s    string
}

// I returns an integer field.
func I(key string, v int64) Field { return Field{Key: key, kind: FieldInt, i: v} }

// F returns a float field.
func F(key string, v float64) Field { return Field{Key: key, kind: FieldFloat, f: v} }

// S returns a string field. The string should be a static or interned name
// (a component, a pattern kind) — building one per emit would reintroduce
// the allocation Emit exists to avoid.
func S(key, v string) Field { return Field{Key: key, kind: FieldStr, s: v} }

// Kind returns the field's type tag.
func (f Field) Kind() FieldKind { return f.kind }

// Int returns the integer value (zero unless Kind is FieldInt).
func (f Field) Int() int64 { return f.i }

// Float returns the float value (zero unless Kind is FieldFloat).
func (f Field) Float() float64 { return f.f }

// Str returns the string value (empty unless Kind is FieldStr).
func (f Field) Str() string { return f.s }

// append renders the field as key=value onto b.
func (f Field) append(b []byte) []byte {
	b = append(b, f.Key...)
	b = append(b, '=')
	switch f.kind {
	case FieldInt:
		b = strconv.AppendInt(b, f.i, 10)
	case FieldFloat:
		b = strconv.AppendFloat(b, f.f, 'g', -1, 64)
	case FieldStr:
		b = append(b, f.s...)
	}
	return b
}

// Event is one traced occurrence. The fields array is inline — no per-event
// heap storage — and formatted only on read.
type Event struct {
	T         sim.Time
	Component string
	Kind      string
	fields    [MaxFields]Field
	nf        uint8
}

// Fields returns the event's typed fields.
func (e *Event) Fields() []Field { return e.fields[:e.nf] }

// NewEvent builds an event outside a tracer — the constructor for
// deserializers (JSONL import, columnar store) that rebuild events from
// persisted form. Fields beyond MaxFields are dropped, mirroring Emit.
func NewEvent(t sim.Time, component, kind string, fields ...Field) Event {
	e := Event{T: t, Component: component, Kind: kind}
	n := len(fields)
	if n > MaxFields {
		n = MaxFields
	}
	copy(e.fields[:n], fields[:n])
	e.nf = uint8(n)
	return e
}

// Detail formats the fields as "k=v k=v". It allocates; call it on read
// paths only.
func (e Event) Detail() string {
	if e.nf == 0 {
		return ""
	}
	var b []byte
	for i := 0; i < int(e.nf); i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		b = e.fields[i].append(b)
	}
	return string(b)
}

// String formats the event as a log line.
func (e Event) String() string {
	return fmt.Sprintf("%12s %-12s %-12s %s", e.T, e.Component, e.Kind, e.Detail())
}

// initialSlots is the storage a new ring starts with (~17 KB).
const initialSlots = 64

// Tracer records events into a ring that retains the newest capacity
// events. The capacity bounds retention, not allocation: storage starts at
// initialSlots and doubles as events arrive, so a run pays for the events
// it records, and only a ring that fills its capacity wraps.
type Tracer struct {
	ring     []Event
	capacity int
	next     int
	full     bool
	seen     int64
}

// New returns a tracer holding the last capacity events.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Tracer{ring: make([]Event, min(capacity, initialSlots)), capacity: capacity}
}

// Emit records an event with up to MaxFields typed fields (extras are
// dropped). The fields slice never escapes, so the variadic call is
// stack-allocated at the call site and steady-state emission allocates
// nothing.
func (tr *Tracer) Emit(t sim.Time, component, kind string, fields ...Field) {
	if tr == nil {
		return
	}
	slot := &tr.ring[tr.next]
	slot.T, slot.Component, slot.Kind = t, component, kind
	n := len(fields)
	if n > MaxFields {
		n = MaxFields
	}
	slot.nf = uint8(n)
	copy(slot.fields[:n], fields[:n])
	for i := n; i < MaxFields; i++ {
		slot.fields[i] = Field{}
	}
	tr.next++
	tr.seen++
	if tr.next == len(tr.ring) {
		if len(tr.ring) < tr.capacity {
			tr.grow()
		} else {
			tr.next = 0
			tr.full = true
		}
	}
}

// grow doubles the storage, up to the capacity. It runs only before the
// ring first wraps, when the events fill ring[:next] in order, so every
// event keeps its slot.
func (tr *Tracer) grow() {
	ring := make([]Event, min(2*len(tr.ring), tr.capacity))
	copy(ring, tr.ring)
	tr.ring = ring
}

// Seen returns the total number of events emitted (including evicted ones).
func (tr *Tracer) Seen() int64 {
	if tr == nil {
		return 0
	}
	return tr.seen
}

// Cap returns the ring capacity: how many events it retains.
func (tr *Tracer) Cap() int {
	if tr == nil {
		return 0
	}
	return tr.capacity
}

// Reset empties the tracer in place, keeping the storage it has grown, so
// one tracer can be reused across runs (a fleet worker's recorder, the
// sweep points of an experiment) the way pooled metrics.Series are. The
// cost is proportional to what was written since the last Reset, not to
// the capacity: slots past next were never touched unless the ring wrapped.
func (tr *Tracer) Reset() {
	if tr == nil {
		return
	}
	// Clear written slots so the ring does not pin field strings from the
	// previous run beyond its lifetime.
	written := tr.ring[:tr.next]
	if tr.full {
		written = tr.ring
	}
	for i := range written {
		written[i] = Event{}
	}
	tr.next = 0
	tr.full = false
	tr.seen = 0
}

// Len returns the number of retained events.
func (tr *Tracer) Len() int {
	if tr == nil {
		return 0
	}
	if tr.full {
		return len(tr.ring)
	}
	return tr.next
}

// Retained returns the retained events in place, as the two runs of the
// ring: every event of older precedes every event of newer, and each run
// is chronological (newer is empty until the ring wraps). Chronological
// holds by construction: the engine fires in (time, seq) order and the ring
// preserves arrival order, so oldest-to-newest is ring order starting at
// next when full. The slices alias the ring — valid only until the next
// Emit or Reset; Events returns a copy that outlives both.
func (tr *Tracer) Retained() (older, newer []Event) {
	if tr == nil {
		return nil, nil
	}
	if !tr.full {
		return tr.ring[:tr.next], nil
	}
	return tr.ring[tr.next:], tr.ring[:tr.next]
}

// Events returns a copy of the retained events in chronological order.
func (tr *Tracer) Events() []Event {
	if tr == nil {
		return nil
	}
	older, newer := tr.Retained()
	out := make([]Event, 0, len(older)+len(newer))
	out = append(out, older...)
	return append(out, newer...)
}

// Query selects events by substring. Zero fields match everything; Detail
// matches against the formatted field text, so a session ID in a field is
// findable. Component and time window are the store index's to answer
// (store.Query), exactly, before events are decoded.
type Query struct {
	Kind   string
	Detail string
}

// Match reports whether e satisfies q.
func (q Query) Match(e *Event) bool {
	if q.Kind != "" && !strings.Contains(e.Kind, q.Kind) {
		return false
	}
	if q.Detail != "" && !strings.Contains(e.Detail(), q.Detail) {
		return false
	}
	return true
}

// SelectEvents filters an event slice by q, preserving order.
func SelectEvents(events []Event, q Query) []Event {
	var out []Event
	for i := range events {
		if q.Match(&events[i]) {
			out = append(out, events[i])
		}
	}
	return out
}

// WriteTo dumps the retained events as log lines. It implements a subset
// of io.WriterTo semantics (byte count is returned).
func (tr *Tracer) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, e := range tr.Events() {
		m, err := fmt.Fprintln(w, e.String())
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
