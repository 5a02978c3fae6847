// Package p plants the cases the exported-surface census must tell apart
// (TestExportedSurfaceCensus in the repository root).
package p

import "repro/internal/sim"

// Unused has no caller at all: reported.
func Unused() {}

// OnlyTested is called only from p_test.go: reported.
func OnlyTested() {}

// Called has a non-test caller and an allowlist row: the row is stale.
func Called() {}

// NoReason has no caller and an allowlist row without a reason: reported.
func NoReason() {}

// Sink is a generic interface whose Receive is called through it.
type Sink[T any] interface{ Receive(T) }

// Cell is what Box receives.
type Cell struct{}

// Box implements Sink[Cell]; only Deliver calls its Receive, through
// the interface, so Receive is not reported.
type Box struct{}

func (Box) Receive(Cell) {}

// Deliver hands x to s.
func Deliver[T any](s Sink[T], x T) { s.Receive(x) }

// Fields plants the cases the field census must tell apart.
type Fields struct {
	written  int   // only assigned and a literal's key: reported
	appended []int // only appended to itself: reported
	summed   int   // only +='d and ++'d: reported
	tested   int   // read only in p_test.go: reported
	read     int   // read by Sum, with an allowlist row: the row is stale
	Tagged   int   `json:"tagged"` // read by its encoder
}

// NewFields writes every field of Fields.
func NewFields() *Fields {
	f := &Fields{written: 1, tested: 2, Tagged: 3}
	f.written = 4
	f.appended = append(f.appended, 5)
	f.summed += 6
	f.summed++
	f.read = 7
	return f
}

// Sum reads f.read.
func (f *Fields) Sum() int { return f.read }

// Hooks plants the cases the hook census must tell apart; Fire calls
// each, so the field census reads them all.
type Hooks struct {
	unset     func() // set only in p_test.go: reported
	keyed     func() // set by a literal key, with an allowlist row: the row is stale
	assigned  func() // set by =
	addressed func() // set through its address
}

// NewHooks sets every hook of Hooks but unset.
func NewHooks() *Hooks {
	h := &Hooks{keyed: tick0}
	h.assigned = tick0
	setHook(&h.addressed)
	return h
}

func setHook(f *func()) { *f = tick0 }

func tick0() {}

// Fire calls every hook that is set.
func (h *Hooks) Fire() {
	for _, f := range []func(){h.unset, h.keyed, h.assigned, h.addressed} {
		if f != nil {
			f()
		}
	}
}

// Knobs plants the cases the knob census must tell apart: each settable
// field (exported without a tag, or func-typed) needs a non-test write
// that sets it. Read reads them all, so the field census passes them.
type Knobs struct {
	Tested    int            // set only in p_test.go: reported
	Defaulted int            // filled only by a constant under its zero test: reported
	Made      map[string]int // made lazily under its nil test, with an allowlist row: the row is stale
	Tagged    int            `json:"tagged"` // tagged: not settable
}

// Pair is set only by a positional literal, which sets both fields.
type Pair struct {
	Name, Detail string
}

// NewPair sets Pair's fields positionally.
func NewPair() Pair { return Pair{"name", "detail"} }

// Read defaults k's fields and reads them.
func (k *Knobs) Read(p Pair) string {
	if k.Defaulted == 0 {
		k.Defaulted = 5
	}
	if k.Made == nil {
		k.Made = make(map[string]int)
	}
	k.Made[p.Name+p.Detail] = k.Tested + k.Defaulted + k.Tagged
	return p.Name
}

// Schedule hands the engine a func literal and a closure variable as
// events' handlers: reported, once each. The named handler and the
// handler its caller passed are not.
func Schedule(e *sim.Engine, fn sim.TypedHandler) {
	e.AfterFunc(1, func(*sim.Engine, sim.Payload) {}, sim.Payload{})
	next := func(*sim.Engine, sim.Payload) {}
	e.AfterFunc(1, next, sim.Payload{})
	e.AfterFunc(1, tick, sim.Payload{})
	e.AfterFunc(1, fn, sim.Payload{})
}

func tick(*sim.Engine, sim.Payload) {}
