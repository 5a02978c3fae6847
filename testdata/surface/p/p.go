// Package p plants the cases the exported-surface census must tell apart
// (TestExportedSurfaceCensus in the repository root).
package p

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
