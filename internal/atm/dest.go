package atm

import (
	"repro/internal/sim"
)

// Dest is an ABR destination end system for one VC. It counts delivered
// payload (the goodput measurements of every figure) and turns forward RM
// cells around into backward RM cells. Switches signal congestion in the
// RM cells themselves (ER, and CI in binary mode), never by marking data
// cells, so the turnaround copies the forward RM cell unchanged.
type Dest struct {
	VC VCID
	// Back is the reverse path toward the source.
	Back Sink

	dataCells int64
	rmCells   int64
}

// NewDest constructs a destination for vc whose backward RM cells are sent
// into back.
func NewDest(vc VCID, back Sink) *Dest {
	return &Dest{VC: vc, Back: back}
}

// DataCells returns the number of data cells delivered so far.
func (d *Dest) DataCells() int64 { return d.dataCells }

// RMCells returns the number of forward RM cells turned around so far.
func (d *Dest) RMCells() int64 { return d.rmCells }

// Receive implements Sink.
func (d *Dest) Receive(e *sim.Engine, c Cell) {
	if c.VC != d.VC {
		return
	}
	switch c.Kind {
	case Data:
		d.dataCells++
	case ForwardRM:
		d.rmCells++
		back := c
		back.Kind = BackwardRM
		d.Back.Receive(e, back)
	case BackwardRM:
		// A destination never sees backward RM cells; drop defensively.
	}
}
