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

// UnmarshalJSON is the inverse of MarshalJSON. A malformed event is an
// error: it decodes bytes this process did not write (the daemon's trace
// rows read by api.RemoteSource).
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
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(events[i].wire()); err != nil {
			return err
		}
	}
	return bw.Flush()
}
