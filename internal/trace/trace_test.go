package trace

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilTracerIsFree(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, "x", "y", I("z", 1))
	if tr.Events() != nil || tr.Seen() != 0 || tr.Cap() != 0 {
		t.Fatal("nil tracer not inert")
	}
	tr.Reset() // must not panic
	if got := SelectEvents(tr.Events(), Query{}); got != nil {
		t.Fatalf("nil Select = %v", got)
	}
}

func TestEmitAndDetail(t *testing.T) {
	tr := New(8)
	tr.Emit(10, "src1", "rate", F("acr", 42))
	tr.Emit(20, "trunk0", "drop", I("vc", 3), S("kind", "data"))
	tr.Emit(30, "trunk0", "tick")
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Detail() != "acr=42" {
		t.Fatalf("float detail = %q", evs[0].Detail())
	}
	if evs[1].Detail() != "vc=3 kind=data" {
		t.Fatalf("multi detail = %q", evs[1].Detail())
	}
	if evs[2].Detail() != "" {
		t.Fatalf("empty detail = %q", evs[2].Detail())
	}
	if tr.Seen() != 3 {
		t.Fatalf("seen = %d", tr.Seen())
	}
}

// TestEmitSteadyStateAllocFree is the flight-recorder half of the
// zero-alloc contract, mirroring internal/sim's hot-path test: once the
// ring exists, emitting typed events — including evicting old ones —
// allocates nothing, because fields are stored typed (no eager Sprintf) and
// the variadic slice never escapes Emit.
func TestEmitSteadyStateAllocFree(t *testing.T) {
	tr := New(64)
	var tick sim.Time
	allocs := testing.AllocsPerRun(1000, func() {
		tick++
		tr.Emit(tick, "trunk0", "drop", I("vc", int64(tick)), F("acr", 1.5), S("k", "data"))
	})
	if allocs != 0 {
		t.Fatalf("steady-state Emit allocated %.1f/op, want 0", allocs)
	}
}

func TestEmitFieldOverflowDropped(t *testing.T) {
	tr := New(4)
	tr.Emit(1, "c", "k",
		I("a", 1), I("b", 2), I("c", 3), I("d", 4), I("e", 5))
	evs := tr.Events()
	if got := len(evs[0].Fields()); got != MaxFields {
		t.Fatalf("retained %d fields, want %d", got, MaxFields)
	}
	if evs[0].Detail() != "a=1 b=2 c=3 d=4" {
		t.Fatalf("detail = %q", evs[0].Detail())
	}
}

// TestRingWraparound pins the eviction and ordering guarantees: after the
// ring wraps (including several times over), Events returns exactly the
// last capacity events, chronologically ordered, with no stale fields
// bleeding through from evicted occupants.
func TestRingWraparound(t *testing.T) {
	tr := New(4)
	for i := 0; i < 11; i++ {
		if i%2 == 0 {
			tr.Emit(sim.Time(i), "c", "k", I("seq", int64(i)), S("tag", "even"))
		} else {
			tr.Emit(sim.Time(i), "c", "k", I("seq", int64(i)))
		}
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want 4", len(evs))
	}
	for i := range evs {
		want := sim.Time(7 + i)
		if evs[i].T != want {
			t.Fatalf("evs[%d].T = %v, want %v", i, evs[i].T, want)
		}
		if i > 0 && evs[i].T < evs[i-1].T {
			t.Fatalf("not chronological at %d", i)
		}
		wantFields := 1
		if (7+i)%2 == 0 {
			wantFields = 2
		}
		if got := len(evs[i].Fields()); got != wantFields {
			t.Fatalf("evs[%d] has %d fields, want %d (stale slot?)", i, got, wantFields)
		}
	}
	if tr.Seen() != 11 {
		t.Fatalf("seen = %d", tr.Seen())
	}
}

func TestReset(t *testing.T) {
	tr := New(4)
	for i := 0; i < 9; i++ {
		tr.Emit(sim.Time(i), "c", "k", I("i", int64(i)))
	}
	tr.Reset()
	if len(tr.Events()) != 0 || tr.Seen() != 0 {
		t.Fatal("Reset left events behind")
	}
	// Reusable after Reset, with correct ordering from a clean slate.
	tr.Emit(100, "c", "k")
	evs := tr.Events()
	if len(evs) != 1 || evs[0].T != 100 {
		t.Fatalf("post-Reset events = %+v", evs)
	}
}

func TestFilterMatchesDetail(t *testing.T) {
	tr := New(8)
	tr.Emit(1, "src1", "rate", F("acr", 10))
	tr.Emit(2, "trunk0", "drop", I("vc", 7))
	tr.Emit(3, "src2", "rate", F("acr", 20))
	if got := len(SelectEvents(tr.Events(), Query{Kind: "rate"})); got != 2 {
		t.Fatalf("kind rate = %d", got)
	}
	if got := len(SelectEvents(tr.Events(), Query{Component: "trunk"})); got != 1 {
		t.Fatalf("component trunk = %d", got)
	}
	// A value that only appears in the detail text is findable.
	if got := len(SelectEvents(tr.Events(), Query{Detail: "vc=7"})); got != 1 {
		t.Fatalf("detail vc=7 = %d, want 1", got)
	}
}

func TestSelectQuery(t *testing.T) {
	tr := New(16)
	tr.Emit(sim.Time(1*sim.Millisecond), "S0", "drop", I("vc", 1))
	tr.Emit(sim.Time(2*sim.Millisecond), "S1", "drop", I("vc", 2))
	tr.Emit(sim.Time(3*sim.Millisecond), "S1", "rate", F("acr", 5))
	tr.Emit(sim.Time(4*sim.Millisecond), "S1", "drop", I("vc", 2))

	if got := SelectEvents(tr.Events(), Query{Component: "S1"}); len(got) != 3 {
		t.Fatalf("component query = %d", len(got))
	}
	if got := SelectEvents(tr.Events(), Query{Component: "S1", Kind: "drop"}); len(got) != 2 {
		t.Fatalf("component+kind query = %d", len(got))
	}
	win := SelectEvents(tr.Events(), Query{From: sim.Time(2 * sim.Millisecond), To: sim.Time(3 * sim.Millisecond)})
	if len(win) != 2 || win[0].T != sim.Time(2*sim.Millisecond) {
		t.Fatalf("window query = %+v", win)
	}
	if got := SelectEvents(tr.Events(), Query{Detail: "vc=2"}); len(got) != 2 {
		t.Fatalf("detail query = %d", len(got))
	}
	// To == 0 means unbounded above.
	if got := SelectEvents(tr.Events(), Query{From: sim.Time(3 * sim.Millisecond)}); len(got) != 2 {
		t.Fatalf("open-ended window = %d", len(got))
	}
}

func TestWriteTo(t *testing.T) {
	tr := New(8)
	tr.Emit(sim.Time(5*sim.Millisecond), "src1", "rate", I("acr", 7))
	var b strings.Builder
	n, err := tr.WriteTo(&b)
	if err != nil || n == 0 {
		t.Fatalf("WriteTo: %d, %v", n, err)
	}
	if !strings.Contains(b.String(), "acr=7") || !strings.Contains(b.String(), "5.000ms") {
		t.Fatalf("output = %q", b.String())
	}
}

func TestZeroCapacityDefaults(t *testing.T) {
	tr := New(0)
	for i := 0; i < 2000; i++ {
		tr.Emit(sim.Time(i), "c", "k")
	}
	if len(tr.Events()) != 1024 {
		t.Fatalf("default capacity = %d", len(tr.Events()))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := New(16)
	tr.Emit(sim.Time(218*sim.Millisecond), "S1", "drop", I("vc", 3), S("cell", "data"))
	tr.Emit(sim.Time(219*sim.Millisecond), "src0", "rate", F("acr", 353207.5471698113))
	tr.Emit(sim.Time(220*sim.Millisecond), "S1", "tick")
	tr.Emit(sim.Time(221*sim.Millisecond), "S1", "zero", Field{})

	var b strings.Builder
	if err := tr.ExportJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "\n"); got != 4 {
		t.Fatalf("exported %d lines, want 4", got)
	}
	// The zero Field has no kind: it is written with no value.
	if !strings.Contains(b.String(), `"fields":[{"k":""}]`) {
		t.Fatalf("zero field exported as %q", b.String())
	}
	back, skipped, err := ReadJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("clean export skipped %d lines", skipped)
	}
	if !reflect.DeepEqual(back, tr.Events()) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, tr.Events())
	}
	// Typed values survive exactly, including the full float.
	if back[1].Detail() != tr.Events()[1].Detail() {
		t.Fatalf("float detail drifted: %q vs %q", back[1].Detail(), tr.Events()[1].Detail())
	}
	if f := back[3].Fields(); len(f) != 1 || f[0] != (Field{}) || back[3].Detail() != "=" {
		t.Fatalf("zero field read back as %+v (detail %q)", f, back[3].Detail())
	}
}

func TestReadJSONLSkipsMalformed(t *testing.T) {
	// A truncated line, an over-long field list and blank lines must not
	// cost the intact events around them: skip-with-count, never abort.
	input := "not json\n" +
		"\n" +
		`{"t":1,"component":"c","kind":"ok"}` + "\n" +
		`{"t":2,"component":"c","kind":"big","fields":[{"k":"a","i":1},{"k":"b","i":2},{"k":"c","i":3},{"k":"d","i":4},{"k":"e","i":5}]}` + "\n" +
		`{"t":3,"component":"c","kind":"also-ok"}` + "\n"
	evs, skipped, err := ReadJSONL(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Fatalf("skipped %d lines, want 2", skipped)
	}
	if len(evs) != 2 || evs[0].Kind != "ok" || evs[1].Kind != "also-ok" {
		t.Fatalf("kept events: %+v", evs)
	}

	evs, skipped, err = ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || skipped != 0 || len(evs) != 0 {
		t.Fatalf("blank lines: %v, %d, %v", evs, skipped, err)
	}
}

// TestResetClearsWhatWasWritten: after a partial fill, an exact fill and a
// wrap, Reset leaves no slot holding an event — so no component, kind or
// field string of the previous run stays pinned — and the tracer records
// the next run as a fresh one would.
func TestResetClearsWhatWasWritten(t *testing.T) {
	for _, emitted := range []int{0, 3, 8, 11} {
		tr := New(8)
		for i := 0; i < emitted; i++ {
			tr.Emit(sim.Time(i), strings.Repeat("c", i+1), "k", S("s", strings.Repeat("v", i+1)))
		}
		tr.Reset()
		if tr.Len() != 0 || tr.Seen() != 0 || len(tr.Events()) != 0 {
			t.Fatalf("%d emitted: Reset left Len %d, Seen %d", emitted, tr.Len(), tr.Seen())
		}
		for i := range tr.ring {
			if tr.ring[i] != (Event{}) {
				t.Fatalf("%d emitted: slot %d still holds %+v after Reset", emitted, i, tr.ring[i])
			}
		}
		fresh := New(8)
		for i := 0; i < 10; i++ {
			tr.Emit(sim.Time(100+i), "c", "k", I("i", int64(i)))
			fresh.Emit(sim.Time(100+i), "c", "k", I("i", int64(i)))
		}
		if !reflect.DeepEqual(tr.Events(), fresh.Events()) || tr.Seen() != fresh.Seen() {
			t.Fatalf("%d emitted: reused tracer diverges from a fresh one", emitted)
		}
	}
}

// TestStorageFollowsEvents: the capacity bounds what a ring retains, not
// what it allocates. A 65 536-event recorder that saw 10 events holds at
// most 64 slots, a wrapped ring holds exactly its capacity, and Reset keeps
// the grown storage but clears only the slots written since the last one.
func TestStorageFollowsEvents(t *testing.T) {
	tr := New(1 << 16)
	for i := 0; i < 10; i++ {
		tr.Emit(sim.Time(i), "c", "k")
	}
	if cap(tr.ring) > 64 || tr.Cap() != 1<<16 {
		t.Fatalf("10 events of 65536: %d slots held, Cap %d", cap(tr.ring), tr.Cap())
	}
	tr.ring[40].T = 99 // never written by Emit: Reset has no business here
	tr.Reset()
	if tr.ring[40].T != 99 {
		t.Fatal("Reset cleared a slot past the write position of an unwrapped ring")
	}

	tr = New(100)
	for i := 0; i < 250; i++ {
		tr.Emit(sim.Time(i), "c", "k")
	}
	if len(tr.ring) != 100 || cap(tr.ring) != 100 || tr.Len() != 100 {
		t.Fatalf("wrapped ring of 100 holds %d slots (cap %d), Len %d", len(tr.ring), cap(tr.ring), tr.Len())
	}
	tr.Reset()
	if len(tr.ring) != 100 {
		t.Fatalf("Reset dropped the grown storage: %d slots", len(tr.ring))
	}
}

// FuzzTracer holds the growing ring to the fixed-size ring it replaced
// (fixedRing, the oracle): byte programs of Emit with 0–6 fields and Reset
// at capacities 1–600, every observable compared after every step.
func FuzzTracer(f *testing.F) {
	f.Add(uint16(0), []byte{0, 1, 2, 3})
	f.Add(uint16(6), []byte{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 0, 1})
	f.Add(uint16(63), bytes.Repeat([]byte{1, 6, 3}, 50))
	f.Add(uint16(99), append(bytes.Repeat([]byte{2, 5}, 120), 7, 1, 2, 3))
	f.Add(uint16(599), append(bytes.Repeat([]byte{4}, 700), 7, 6))
	components := [3]string{"S0", "trunk1", "src2"}
	f.Fuzz(func(t *testing.T, c uint16, prog []byte) {
		capacity := 1 + int(c)%600
		tr, ref := New(capacity), newFixedRing(capacity)
		for step, op := range prog {
			if op%8 == 7 {
				tr.Reset()
				ref.Reset()
			} else {
				fields := [6]Field{
					I("i", int64(step)), F("f", float64(op)/3), S("s", components[step%3]),
					I("j", -int64(op)), F("g", float64(step)), S("t", components[op%3]),
				}
				n := int(op % 8)
				tr.Emit(sim.Time(step), components[op%3], "k", fields[:n]...)
				ref.Emit(sim.Time(step), components[op%3], "k", fields[:n]...)
			}
			o, n := tr.Retained()
			ro, rn := ref.Retained()
			if !slices.Equal(o, ro) || !slices.Equal(n, rn) {
				t.Fatalf("step %d: Retained %d+%d events, oracle %d+%d", step, len(o), len(n), len(ro), len(rn))
			}
			if !slices.Equal(tr.Events(), ref.Events()) {
				t.Fatalf("step %d: Events differ from the oracle's", step)
			}
			if tr.Len() != ref.Len() || tr.Seen() != ref.Seen() || tr.Cap() != ref.Cap() {
				t.Fatalf("step %d: Len/Seen/Cap %d/%d/%d, oracle %d/%d/%d",
					step, tr.Len(), tr.Seen(), tr.Cap(), ref.Len(), ref.Seen(), ref.Cap())
			}
			if len(tr.ring) > capacity {
				t.Fatalf("step %d: %d slots held at capacity %d", step, len(tr.ring), capacity)
			}
		}
	})
}

// TestRetained: the two in-place runs are Events without the copy, before
// and after the ring wraps, and ExportJSONL writes exactly them.
func TestRetained(t *testing.T) {
	var nilTr *Tracer
	if o, n := nilTr.Retained(); o != nil || n != nil || nilTr.Len() != 0 {
		t.Fatal("nil tracer retained events")
	}
	for _, emitted := range []int{0, 3, 8, 11} {
		tr := New(8)
		for i := 0; i < emitted; i++ {
			tr.Emit(sim.Time(i), "c", "k", I("i", int64(i)))
		}
		older, newer := tr.Retained()
		joined := append(append([]Event{}, older...), newer...)
		if !reflect.DeepEqual(joined, tr.Events()) || tr.Len() != len(joined) {
			t.Fatalf("%d emitted: Retained %v+%v, Events %v, Len %d", emitted, older, newer, tr.Events(), tr.Len())
		}
		if emitted <= 8 && len(newer) != 0 {
			t.Fatalf("%d emitted: unwrapped ring has a newer run %v", emitted, newer)
		}
		var fromRing, fromCopy strings.Builder
		if err := tr.ExportJSONL(&fromRing); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSONL(&fromCopy, tr.Events()); err != nil {
			t.Fatal(err)
		}
		if fromRing.String() != fromCopy.String() {
			t.Fatalf("%d emitted: ExportJSONL differs from WriteJSONL(Events())", emitted)
		}
	}
}
