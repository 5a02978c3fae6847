// Package use is the planted caller of package p.
package use

import "repro/testdata/surface/p"

// Run calls what p exports, except Unused and OnlyTested.
func Run() {
	p.Called()
	p.Deliver[p.Cell](p.Box{}, p.Cell{})
}
