package p

import (
	"testing"

	"repro/internal/sim"
)

func TestOnlyTested(t *testing.T) { OnlyTested() }

// A test may schedule a func literal: not reported.
func TestSchedule(t *testing.T) {
	e := sim.NewEngine()
	e.AfterFunc(1, func(*sim.Engine, sim.Payload) {}, sim.Payload{})
	e.RunUntil(1)
}

func TestFields(t *testing.T) {
	if NewFields().tested != 2 {
		t.Fatal("tested not set")
	}
}

// A test may set a hook: it does not count.
func TestHooks(t *testing.T) {
	h := NewHooks()
	h.unset = func() {}
	h.Fire()
}

// A test may set a knob: it does not count.
func TestKnobs(t *testing.T) {
	k := &Knobs{Tested: 1}
	k.Read(NewPair())
}
