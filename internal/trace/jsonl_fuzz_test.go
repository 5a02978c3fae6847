package trace

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// Allocation bound for FuzzReadJSONL: the scanner's 64 KiB buffer plus a
// fixed multiple of the input. The cheapest accepted line, "{}\n", is 3
// bytes that decode to a 272-byte Event, which append-doubling may hold
// twice over, plus json.Unmarshal's per-line state: ~610 allocated bytes
// per input byte, which the multiple covers about 3×. An allocation sized
// by a value in the input rather than by its length overshoots it.
const (
	jsonlAllocBase    = 1 << 20
	jsonlAllocPerByte = 2048
)

// FuzzReadJSONL feeds arbitrary bytes to ReadJSONL, the reader of exports
// it did not write: it must not panic, must allocate within jsonlAllocBase
// + jsonlAllocPerByte × the input's length, and whatever events it accepts
// must survive the JSONL writer: written, read back (nothing skipped, the
// same events) and written again, the bytes are identical.
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(`{"t":218000000,"component":"F0","kind":"drop","fields":[{"k":"vc","i":3}]}` + "\n" +
		`{"t":-5,"component":"src2","kind":"rate","fields":[{"k":"acr","f":149759.99999999997},{"k":"j","i":-9223372036854775808}]}` + "\n"))
	f.Add([]byte(`{"t":1,"component":"S<1>","kind":"rate","fields":[{"k":"acr","f":-0},{"k":"s","s":"é�"},{"k":"n"},{"k":"x","i":1,"f":2}]}` + "\n\n{}\nnull\n"))
	f.Add([]byte("{\"t\":2,\"fields\":[{},{},{},{},{}]}\n{\"t\":1.5}\n{\"t\":3,\"kind\":\"\xff\"}\r\n{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			evs []Event
			err error
		)
		n := allocated(func() { evs, _, err = ReadJSONL(bytes.NewReader(data)) })
		if limit := jsonlAllocBase + jsonlAllocPerByte*uint64(len(data)); n > limit {
			t.Fatalf("%d input bytes made ReadJSONL allocate %d bytes (limit %d)", len(data), n, limit)
		}
		if err != nil {
			return // a line over the 1 MiB limit; the events before it stand
		}
		var first bytes.Buffer
		if err := WriteJSONL(&first, evs); err != nil {
			t.Fatal(err)
		}
		if first.Len() > 1<<20 {
			return // escaping may have lengthened a line past the reader's limit
		}
		back, skipped, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil || skipped != 0 || !reflect.DeepEqual(back, evs) {
			t.Fatalf("re-read of %d events: %d back, %d skipped, err %v", len(evs), len(back), skipped, err)
		}
		var second bytes.Buffer
		if err := WriteJSONL(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-export differs:\n%s\n%s", first.Bytes(), second.Bytes())
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
