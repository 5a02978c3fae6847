package shard

import (
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestLinearPartition(t *testing.T) {
	p := Linear(6, 2)
	want := []int{0, 0, 0, 1, 1, 1}
	for i, s := range p.Node {
		if s != want[i] {
			t.Fatalf("Linear(6,2).Node = %v, want %v", p.Node, want)
		}
	}
	if err := p.Validate(6); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Contiguity: a linear partition never assigns a lower shard after a
	// higher one, so each trunk k–(k+1) is cut at most between neighbors.
	p = Linear(7, 3)
	for i := 1; i < len(p.Node); i++ {
		if p.Node[i] < p.Node[i-1] {
			t.Fatalf("Linear(7,3) not contiguous: %v", p.Node)
		}
	}
	// Clamping: more shards than nodes collapses to one node per shard.
	p = Linear(3, 8)
	if p.Shards != 3 {
		t.Fatalf("Linear(3,8).Shards = %d, want 3", p.Shards)
	}
	if p = Linear(4, 0); p.Shards != 1 {
		t.Fatalf("Linear(4,0).Shards = %d, want 1", p.Shards)
	}
}

func TestValidateErrors(t *testing.T) {
	if err := (Partition{Shards: 0, Node: nil}).Validate(0); err == nil {
		t.Fatal("0 shards validated")
	}
	if err := (Partition{Shards: 2, Node: []int{0}}).Validate(2); err == nil {
		t.Fatal("short partition validated")
	}
	if err := (Partition{Shards: 2, Node: []int{0, 2}}).Validate(2); err == nil {
		t.Fatal("out-of-range shard id validated")
	}
}

func TestLookahead(t *testing.T) {
	p := Partition{Shards: 2, Node: []int{0, 0, 1, 1}}
	edges := []Edge{
		{U: 0, V: 1, Delay: sim.Microsecond, Name: "inner"},
		{U: 1, V: 2, Delay: 5 * sim.Microsecond, Name: "cut-a"},
		{U: 0, V: 3, Delay: 3 * sim.Microsecond, Name: "cut-b"},
	}
	w, err := p.Lookahead(edges)
	if err != nil {
		t.Fatalf("Lookahead: %v", err)
	}
	if w != 3*sim.Microsecond {
		t.Fatalf("Lookahead = %v, want 3µs (min over cut edges only)", w)
	}

	// A zero-delay cut edge is an error naming the link; the same edge
	// inside one shard is fine.
	edges[2].Delay = 0
	if _, err := p.Lookahead(edges); err == nil || !strings.Contains(err.Error(), "cut-b") {
		t.Fatalf("zero-delay cut error = %v, want mention of cut-b", err)
	}
	one := Partition{Shards: 1, Node: []int{0, 0, 0, 0}}
	if w, err := one.Lookahead(edges); err != nil || w != 0 {
		t.Fatalf("uncut Lookahead = %v, %v; want 0, nil", w, err)
	}
}

func TestAutoPartition(t *testing.T) {
	// Two tight clusters joined by one slow edge: Auto must cut the slow
	// edge, maximizing the window.
	edges := []Edge{
		{U: 0, V: 1, Delay: 1 * sim.Microsecond},
		{U: 1, V: 2, Delay: 1 * sim.Microsecond},
		{U: 3, V: 4, Delay: 1 * sim.Microsecond},
		{U: 4, V: 5, Delay: 1 * sim.Microsecond},
		{U: 2, V: 3, Delay: 500 * sim.Microsecond}, // the WAN hop
	}
	p := Auto(6, edges, 2)
	if err := p.Validate(6); err != nil {
		t.Fatalf("Auto invalid: %v", err)
	}
	if !p.Cut(2, 3) {
		t.Fatalf("Auto did not cut the slow edge: %v", p.Node)
	}
	for _, e := range edges[:4] {
		if p.Cut(e.U, e.V) {
			t.Fatalf("Auto cut fast edge %d–%d: %v", e.U, e.V, p.Node)
		}
	}
	w, err := p.Lookahead(edges)
	if err != nil || w != 500*sim.Microsecond {
		t.Fatalf("Auto window = %v, %v; want 500µs", w, err)
	}

	// Determinism: same inputs, same partition.
	q := Auto(6, edges, 2)
	for i := range p.Node {
		if p.Node[i] != q.Node[i] {
			t.Fatalf("Auto not deterministic: %v vs %v", p.Node, q.Node)
		}
	}
	// Clamping.
	if Auto(3, nil, 9).Shards != 3 {
		t.Fatal("Auto did not clamp shards to nodes")
	}
	if Auto(4, edges[:1], 1).Shards != 1 {
		t.Fatal("Auto(1) must be single-shard")
	}
}

// TestGroupAdvance drives two engines through the epoch protocol with a
// conduit between them and checks timing, ordering, and the accounting.
// The worker goroutines inside Advance give the race detector a real
// cross-goroutine conduit exercise on every `go test -race` run.
func TestGroupAdvance(t *testing.T) {
	reg := telemetry.New()
	e0 := sim.NewEngine()
	e1 := sim.NewEngine()
	const window = 10 * sim.Microsecond
	g := NewGroup([]*sim.Engine{e0, e1}, window, reg)

	var got []struct {
		at sim.Time
		vc atm.VCID
	}
	sink := atm.SinkFunc(func(e *sim.Engine, c atm.Cell) {
		got = append(got, struct {
			at sim.Time
			vc atm.VCID
		}{e.Now(), c.VC})
	})
	cd := g.NewConduit(25*sim.Microsecond, e1, sink)

	// Shard 0 sends one cell per window for 3 windows, starting mid-window.
	for i := 0; i < 3; i++ {
		i := i
		e0.AtFunc(sim.Time(4+10*i)*sim.Time(sim.Microsecond), call, sim.Payload{Obj: func(en *sim.Engine) {
			cd.Receive(en, atm.Cell{VC: atm.VCID(i + 1)})
		}})
	}
	g.Advance(100 * sim.Microsecond)

	if e0.Now() != sim.Time(100*sim.Microsecond) || e1.Now() != e0.Now() {
		t.Fatalf("engines at %v / %v, want both at 100µs", e0.Now(), e1.Now())
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d cells, want 3", len(got))
	}
	for i, d := range got {
		wantAt := sim.Time(4+10*i+25) * sim.Time(sim.Microsecond)
		if d.at != wantAt || d.vc != atm.VCID(i+1) {
			t.Fatalf("delivery %d = (t=%v, vc=%d), want (t=%v, vc=%d)", i, d.at, d.vc, wantAt, i+1)
		}
	}

	st := g.Stat()
	if st.Epochs != 10 {
		t.Fatalf("epochs = %d, want 10 (100µs / 10µs window)", st.Epochs)
	}
	if st.CellsCrossed != 3 {
		t.Fatalf("cells crossed = %d, want 3", st.CellsCrossed)
	}
	snap := reg.Snapshot()
	if snap["shard.cells_crossed"] != 3 {
		t.Fatalf("shard.cells_crossed = %d, want 3", snap["shard.cells_crossed"])
	}
	if snap["shard.barrier_waits"] != 20 {
		t.Fatalf("shard.barrier_waits = %d, want 20 (2 engines × 10 epochs)", snap["shard.barrier_waits"])
	}
	// 10 epochs, 3 with a crossing: 7 empty flushes counted as null messages.
	if snap["shard.null_messages"] != 7 {
		t.Fatalf("shard.null_messages = %d, want 7", snap["shard.null_messages"])
	}
	if cd.pending.Len() != 0 {
		t.Fatalf("conduit still holds %d cells", cd.pending.Len())
	}
}

// TestGroupPartialWindow checks the final short epoch: a cell sent inside
// it still arrives strictly after the horizon and is delivered by the next
// Advance call, never lost.
func TestGroupPartialWindow(t *testing.T) {
	e0 := sim.NewEngine()
	e1 := sim.NewEngine()
	const window = 10 * sim.Microsecond
	g := NewGroup([]*sim.Engine{e0, e1}, window, nil)

	var arrivals []sim.Time
	cd := g.NewConduit(window, e1, atm.SinkFunc(func(e *sim.Engine, c atm.Cell) {
		arrivals = append(arrivals, e.Now())
	}))
	// Sent at t=13µs inside the partial window (10, 15]; arrival 23µs is
	// beyond the 15µs horizon of the first Advance.
	e0.AtFunc(sim.Time(13*sim.Microsecond), call, sim.Payload{Obj: func(en *sim.Engine) {
		cd.Receive(en, atm.Cell{VC: 1})
	}})

	g.Advance(15 * sim.Microsecond)
	if len(arrivals) != 0 {
		t.Fatalf("cell delivered at %v before its arrival time", arrivals)
	}
	if cd.pending.Len() != 0 {
		// The barrier at the horizon must still have moved it to the inbox.
		t.Fatalf("cell not flushed at final barrier (%d pending)", cd.pending.Len())
	}
	g.Advance(15 * sim.Microsecond)
	if len(arrivals) != 1 || arrivals[0] != sim.Time(23*sim.Microsecond) {
		t.Fatalf("arrivals = %v, want [23µs]", arrivals)
	}
}

// call runs the func(*sim.Engine) in p.Obj: a test's one-off event.
func call(e *sim.Engine, p sim.Payload) { p.Obj.(func(*sim.Engine))(e) }
