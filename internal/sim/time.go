// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate for every experiment in this repository: the
// paper evaluated Phantom in BONeS, a commercial event-driven simulator, and
// sim is the hand-rolled equivalent. Simulated time is an integer number of
// nanoseconds; events scheduled for the same instant fire in insertion order,
// which makes every run bit-for-bit reproducible for a fixed seed.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute simulation time in nanoseconds since the start of the
// run. It is deliberately not time.Time: simulation clocks start at zero and
// never relate to the wall clock.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration = time.Duration

// Common durations re-exported for readability at call sites.
const (
	Microsecond Duration = time.Microsecond
	Millisecond Duration = time.Millisecond
	Second      Duration = time.Second
)

// Add returns t shifted forward by d. Negative results are clamped to 0 so a
// careless negative delay cannot move an event into the past of the epoch.
func (t Time) Add(d Duration) Time {
	r := t + Time(d)
	if r < 0 {
		return 0
	}
	return r
}

// Sub returns the duration t−u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with millisecond precision, e.g. "12.345ms".
func (t Time) String() string {
	return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
}

// DurationOf returns the time needed to serialize size bits at rate bits/s.
// It is the workhorse conversion for link transmitters. Rates that are zero
// or negative yield an infinite (very large) duration, which in practice
// parks the transmission until the caller reschedules it.
func DurationOf(sizeBits float64, rateBitsPerSec float64) Duration {
	if rateBitsPerSec <= 0 {
		return Duration(1<<62 - 1)
	}
	ns := sizeBits / rateBitsPerSec * float64(Second)
	if ns < 0 {
		return 0
	}
	if ns > float64(1<<62-1) {
		return Duration(1<<62 - 1)
	}
	return Duration(ns)
}
