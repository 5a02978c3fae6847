package scenario

import (
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// engineFlush folds an engine's lifetime event statistics into a registry
// incrementally: each call adds only the delta since the previous flush, so
// the cumulative Run calls the scenarios allow never double-count.
//
// engine.events_canceled is sim.Engine.Canceled: a timer's arming counts
// when Stop or a later Reset supersedes it, so in the TCP scenarios, whose
// only cancellations are timers, scheduled − fired − canceled is exactly the
// number of events still to fire.
type engineFlush struct {
	scheduled, fired, canceled uint64
}

func (f *engineFlush) flush(reg *telemetry.Registry, e *sim.Engine) {
	if reg == nil {
		return
	}
	s, fi, c := e.Scheduled(), e.Fired(), e.Canceled()
	reg.Counter("engine.events_scheduled").Add(s - f.scheduled)
	reg.Counter("engine.events_fired").Add(fi - f.fired)
	reg.Counter("engine.events_canceled").Add(c - f.canceled)
	f.scheduled, f.fired, f.canceled = s, fi, c
}
