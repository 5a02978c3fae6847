package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
)

// The JSONL wire format: one event per line, fields as typed objects so
// that int/float/string distinction survives a round trip exactly (a bare
// JSON number would come back float64). Timestamps are simulated
// nanoseconds.
//
//	{"t":218000000,"component":"F0","kind":"drop","fields":[{"k":"vc","i":3}]}

type jsonField struct {
	K string   `json:"k"`
	I *int64   `json:"i,omitempty"`
	F *float64 `json:"f,omitempty"`
	S *string  `json:"s,omitempty"`
}

type jsonEvent struct {
	T         int64       `json:"t"`
	Component string      `json:"component"`
	Kind      string      `json:"kind"`
	Fields    []jsonField `json:"fields,omitempty"`
}

// wire converts the event to its JSON shape.
func (e *Event) wire() jsonEvent {
	je := jsonEvent{T: int64(e.T), Component: e.Component, Kind: e.Kind}
	for _, f := range e.Fields() {
		jf := jsonField{K: f.Key}
		switch f.kind {
		case FieldInt:
			v := f.i
			jf.I = &v
		case FieldFloat:
			v := f.f
			jf.F = &v
		case FieldStr:
			v := f.s
			jf.S = &v
		}
		je.Fields = append(je.Fields, jf)
	}
	return je
}

// fromWire rebuilds the event from its JSON shape. Reports false when the
// shape is out of contract (more than MaxFields fields).
func (e *Event) fromWire(je jsonEvent) bool {
	if len(je.Fields) > MaxFields {
		return false
	}
	*e = Event{T: sim.Time(je.T), Component: je.Component, Kind: je.Kind}
	for i, jf := range je.Fields {
		switch {
		case jf.I != nil:
			e.fields[i] = I(jf.K, *jf.I)
		case jf.F != nil:
			e.fields[i] = F(jf.K, *jf.F)
		case jf.S != nil:
			e.fields[i] = S(jf.K, *jf.S)
		default:
			e.fields[i] = Field{Key: jf.K}
		}
		e.nf++
	}
	return true
}

// MarshalJSON renders the event in the JSONL wire shape, so an Event
// embedded in a larger envelope (the analytics API's trace rows) uses the
// exact encoding of an export line and round-trips typed fields.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(e.wire())
}

// UnmarshalJSON is the inverse of MarshalJSON. Unlike ReadJSONL — which
// skips and counts malformed lines — a malformed embedded event is an
// error, because an envelope consumer has no skip channel.
func (e *Event) UnmarshalJSON(b []byte) error {
	var je jsonEvent
	if err := json.Unmarshal(b, &je); err != nil {
		return err
	}
	if !e.fromWire(je) {
		return fmt.Errorf("trace: event with %d fields (max %d)", len(je.Fields), MaxFields)
	}
	return nil
}

// WriteJSONL writes events as JSON lines. This is the read path — it
// allocates freely; the hot path is Emit.
func WriteJSONL(w io.Writer, events []Event) error {
	return writeJSONL(w, events, nil)
}

// writeJSONL writes two consecutive event runs through one buffer.
func writeJSONL(w io.Writer, older, newer []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, events := range [2][]Event{older, newer} {
		for i := range events {
			if err := enc.Encode(events[i].wire()); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ExportJSONL writes the tracer's retained events as JSON lines, straight
// from the ring.
func (tr *Tracer) ExportJSONL(w io.Writer) error {
	older, newer := tr.Retained()
	return writeJSONL(w, older, newer)
}

// ReadJSONL parses a JSONL export back into events. Blank lines are
// ignored; malformed lines (bad JSON, too many fields) are skipped and
// counted rather than aborting the read — a truncated or interleaved
// export should still yield every intact event, with the damage surfaced
// as the skipped count. Only an I/O error fails the call.
func ReadJSONL(r io.Reader) ([]Event, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	skipped := 0
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			skipped++
			continue
		}
		var e Event
		if !e.fromWire(je) {
			skipped++
			continue
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, skipped, err
	}
	return out, skipped, nil
}
