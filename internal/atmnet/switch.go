package atmnet

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Switch routes cells between its output ports, each a Link. Routing is
// static per VC: data and forward RM cells of a VC leave on its forward
// port; backward RM cells leave on its backward port but receive feedback
// from the *forward* port's algorithm, because that is the port the VC's
// data contends for — exactly how the ATM-Forum switch proposals are
// specified.
type Switch struct {
	Name string
	// fwd and bwd are the routing tables, indexed by VC: VCIDs are small
	// dense integers and the tables are read once or twice per cell.
	fwd []*Link
	bwd []*Link
	// scratch is the cell handed to the port algorithms by pointer (they
	// mutate it in place: ER reduction, CI marking) and then forwarded.
	// A field rather than a local keeps the per-cell call from forcing a
	// heap allocation. Safe because algorithm callbacks never re-enter
	// Receive — downstream delivery always goes through a scheduled event.
	scratch atm.Cell

	tel switchTel
}

// switchTel counts cells routed by direction/kind; handles are inert without
// a registry.
type switchTel struct {
	data telemetry.Counter
	fRM  telemetry.Counter
	bRM  telemetry.Counter
}

// Instrument registers the switch's routing counters with reg.
func (s *Switch) Instrument(reg *telemetry.Registry) {
	s.tel = switchTel{
		data: reg.Counter("switch.cells_data"),
		fRM:  reg.Counter("switch.cells_frm"),
		bRM:  reg.Counter("switch.cells_brm"),
	}
}

// NewSwitch returns an empty switch.
func NewSwitch(name string) *Switch {
	return &Switch{Name: name}
}

// Route installs the static route for a VC: forward-direction cells exit on
// fwd; backward RM cells exit on bwd. Either may be nil when the switch is
// not on that direction's path (e.g. the last switch before the destination
// still forwards data but a different switch handles the reverse).
func (s *Switch) Route(vc atm.VCID, fwd, bwd *Link) {
	if vc < 0 {
		panic(fmt.Sprintf("atmnet: switch %s: negative VC %d", s.Name, vc))
	}
	if fwd != nil {
		s.fwd = setRoute(s.fwd, vc, fwd)
	}
	if bwd != nil {
		s.bwd = setRoute(s.bwd, vc, bwd)
	}
}

// setRoute stores p at tab[vc], growing the table to reach.
func setRoute(tab []*Link, vc atm.VCID, p *Link) []*Link {
	if n := int(vc) + 1; n > len(tab) {
		tab = append(tab, make([]*Link, n-len(tab))...)
	}
	tab[vc] = p
	return tab
}

// route returns tab[vc], or nil for a VC the table does not reach.
func route(tab []*Link, vc atm.VCID) *Link {
	if uint(vc) < uint(len(tab)) {
		return tab[vc]
	}
	return nil
}

// Receive implements atm.Sink.
func (s *Switch) Receive(e *sim.Engine, c atm.Cell) {
	now := e.Now()
	s.scratch = c
	if c.Kind == atm.BackwardRM {
		s.tel.bRM.Inc()
		if fp := route(s.fwd, c.VC); fp != nil && fp.alg != nil {
			fp.alg.OnBackwardRM(now, &s.scratch)
		}
		bp := route(s.bwd, c.VC)
		if bp == nil {
			panic(fmt.Sprintf("atmnet: switch %s has no backward route for VC %d", s.Name, c.VC))
		}
		bp.Receive(e, s.scratch)
		return
	}
	fp := route(s.fwd, c.VC)
	if fp == nil {
		panic(fmt.Sprintf("atmnet: switch %s has no forward route for VC %d", s.Name, c.VC))
	}
	if c.Kind == atm.ForwardRM {
		s.tel.fRM.Inc()
	} else {
		s.tel.data.Inc()
	}
	if fp.alg != nil {
		fp.alg.OnArrival(now, &s.scratch)
		if c.Kind == atm.ForwardRM {
			fp.alg.OnForwardRM(now, &s.scratch)
		}
	}
	fp.Receive(e, s.scratch)
}
