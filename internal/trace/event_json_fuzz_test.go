package trace

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// Allocation bound for FuzzEventJSON: a fixed base plus a multiple of the
// input. json.Unmarshal's decoder state and the wire shape's per-field
// pointers cost a few hundred bytes per input byte at the cheapest ("{}" is
// 2 bytes that decode to a 272-byte Event); the multiple covers that
// several times over. An allocation sized by a value in the input rather
// than by its length overshoots it.
const (
	eventJSONAllocBase    = 64 << 10
	eventJSONAllocPerByte = 2048
)

// FuzzEventJSON feeds arbitrary bytes to Event.UnmarshalJSON, the decoder of
// trace rows this process did not write (a daemon's, read through
// api.RemoteSource): it must not panic, must allocate within
// eventJSONAllocBase + eventJSONAllocPerByte × the input's length, and an
// event it accepts must survive the encoder: marshalled, decoded back (the
// same event) and marshalled again, the bytes are identical.
func FuzzEventJSON(f *testing.F) {
	for _, seed := range []string{
		`{"t":218000000,"component":"F0","kind":"drop","fields":[{"k":"vc","i":3}]}`,
		`{"t":-5,"component":"src2","kind":"rate","fields":[{"k":"acr","f":149759.99999999997},{"k":"j","i":-9223372036854775808}]}`,
		`{"t":1,"component":"S<1>","kind":"rate","fields":[{"k":"acr","f":-0},{"k":"s","s":"é�"},{"k":"n"},{"k":"x","i":1,"f":2}]}`,
		``,
		`{}`,
		`null`,
		`{"t":2,"fields":[{},{},{},{},{}]}`,
		`{"t":1.5}`,
		"{\"t\":3,\"kind\":\"\xff\"}\r",
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			e   Event
			err error
		)
		n := allocated(func() { err = e.UnmarshalJSON(data) })
		if limit := eventJSONAllocBase + eventJSONAllocPerByte*uint64(len(data)); n > limit {
			t.Fatalf("%d input bytes made UnmarshalJSON allocate %d bytes (limit %d)", len(data), n, limit)
		}
		if err != nil {
			return
		}
		first, err := e.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Event
		if err := back.UnmarshalJSON(first); err != nil || !reflect.DeepEqual(back, e) {
			t.Fatalf("re-decode of %s: %+v, err %v; want %+v", first, back, err, e)
		}
		second, err := back.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-encode differs:\n%s\n%s", first, second)
		}
	})
}

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
