package atm

import (
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Source is an ABR source end system. It paces cells at its allowed cell
// rate (ACR), emits a forward RM cell every Nrm cells, and adjusts ACR on
// every backward RM it receives:
//
//	CI set:   ACR := ACR·(1 − Nrm/RDF)        (multiplicative decrease)
//	CI clear: ACR := ACR + AIR·Nrm            (additive increase)
//	always:   ACR := max(min(ACR, ER, PCR), max(MCR, TCR))
//
// The source's willingness to send is governed by a workload.Pattern, which
// is how the on/off sessions of Fig. 4 are produced. After an idle gap
// longer than TOF·Nrm/ACR the source restarts from ICR (ACR retention).
//
// Out-of-rate RM cells: when ACR is very low, the in-rate RM cadence of
// one per Nrm data cells collapses (at the TCR floor of 10 cells/s an RM
// cell would pass every 3.2 s), which would leave a rate-limited source
// effectively deaf to the network raising its allowance. Per TM 4.0 the
// source therefore also emits forward RM cells out-of-rate at up to TCR
// per second whenever no in-rate RM has gone out recently — this is what
// TCR is for, and it bounds the feedback loop's dead time at 1/TCR.
//
// Source implements Sink to receive its own backward RM cells.
type Source struct {
	VC      VCID
	Params  SourceParams
	Pattern workload.Pattern
	Out     Sink // access link toward the first switch

	// OnRateChange, if non-nil, is called whenever ACR changes;
	// experiments record the "sessions' allowed rate" curves from it.
	OnRateChange func(now sim.Time, acr float64)

	acr          float64
	cellsSent    int64 // total data+fRM cells emitted
	bRMsSeen     int64 // backward RM cells consumed
	lastRM       sim.Time
	everRM       bool
	unansweredRM int
	sinceRM      int // cells since last forward RM
	lastSend     sim.Time
	everSent     bool
	sendPending  bool
	started      bool

	tel sourceTel
}

// sourceTel holds the source's pre-resolved telemetry handles (inert without
// a registry).
type sourceTel struct {
	cellsSent   telemetry.Counter
	rmInRate    telemetry.Counter
	rmOutOfRate telemetry.Counter
	brmSeen     telemetry.Counter
	rateChanges telemetry.Counter
}

// Instrument registers the source's counters with reg.
func (s *Source) Instrument(reg *telemetry.Registry) {
	s.tel = sourceTel{
		cellsSent:   reg.Counter("source.cells_sent"),
		rmInRate:    reg.Counter("source.rm_in_rate"),
		rmOutOfRate: reg.Counter("source.rm_out_of_rate"),
		brmSeen:     reg.Counter("source.brm_seen"),
		rateChanges: reg.Counter("source.rate_changes"),
	}
}

// NewSource constructs a source; parameters are validated at Start.
func NewSource(vc VCID, params SourceParams, pattern workload.Pattern, out Sink) *Source {
	return &Source{VC: vc, Params: params, Pattern: pattern, Out: out}
}

// CellsSent returns the total number of cells the source has emitted.
func (s *Source) CellsSent() int64 { return s.cellsSent }

// BackwardRMsSeen returns the number of backward RM cells consumed.
func (s *Source) BackwardRMsSeen() int64 { return s.bRMsSeen }

// Start validates parameters, initializes ACR to ICR and begins the send
// loop under the pattern's control.
func (s *Source) Start(e *sim.Engine) error {
	if err := s.Params.Validate(); err != nil {
		return err
	}
	if s.Pattern == nil {
		s.Pattern = workload.Greedy{}
	}
	s.started = true
	s.setACR(e.Now(), s.Params.ICR)
	s.scheduleActivity(e)
	if s.Params.TCR > 0 {
		oorGap := sim.DurationOf(1, s.Params.TCR)
		// Stagger the ticker phase per VC. Phase-locked out-of-rate RM
		// cells would invite every rate-floored source back into the
		// network in the same instant — a synchronized burst no real
		// population of sources exhibits — so each VC's keep-alive is
		// offset deterministically across the interval.
		offset := sim.Duration(int64(oorGap) / 64 * int64(uint64(s.VC)%64))
		e.AfterFunc(oorGap+offset, sourceKeepAlive, sim.Payload{Obj: s, I: int64(oorGap)})
	}
	return nil
}

// sourceKeepAlive is the out-of-rate tick of the Source in p.Obj, every
// p.I ns: an RM cell goes out while the source is active and has sent none
// for that long.
func sourceKeepAlive(e *sim.Engine, p sim.Payload) {
	s, oorGap := p.Obj.(*Source), sim.Duration(p.I)
	if s.Pattern.ActiveAt(e.Now()) &&
		(!s.everRM || e.Now().Sub(s.lastRM) >= oorGap) {
		s.emitRM(e, true)
	}
	e.AfterFunc(oorGap, sourceKeepAlive, p)
}

// emitRM sends a forward RM cell; out-of-rate cells bypass the data pacing
// (they are the TM 4.0 low-rate keep-alive of the control loop).
func (s *Source) emitRM(e *sim.Engine, outOfRate bool) {
	// Missing-RM safeguard (TM 4.0 CRM/CDF): feedback is overdue, so each
	// further RM cuts the rate multiplicatively before transmission.
	s.unansweredRM++
	if s.unansweredRM > s.Params.CRM {
		acr := s.acr * (1 - s.Params.CDF)
		if f := s.Params.floor(); acr < f {
			acr = f
		}
		s.setACR(e.Now(), acr)
	}
	c := Cell{VC: s.VC, Kind: ForwardRM, CCR: s.acr, ER: s.Params.PCR}
	s.cellsSent++
	s.lastRM = e.Now()
	s.everRM = true
	if outOfRate {
		s.tel.rmOutOfRate.Inc()
	} else {
		s.tel.rmInRate.Inc()
		s.everSent = true
		s.lastSend = e.Now()
		s.sinceRM = 0
	}
	s.Out.Receive(e, c)
}

// scheduleActivity arms the send loop if the pattern is active now and
// schedules a wake-up at the next pattern transition.
func (s *Source) scheduleActivity(e *sim.Engine) {
	if s.Pattern.ActiveAt(e.Now()) {
		s.armSend(e)
	}
	if next, ok := s.Pattern.NextChange(e.Now()); ok {
		e.AtFunc(next, sourceActivity, sim.Payload{Obj: s})
	}
}

// sourceActivity is the pattern-transition wake-up; the payload carries the
// source so the recurring schedule allocates no closure.
func sourceActivity(e *sim.Engine, p sim.Payload) {
	p.Obj.(*Source).scheduleActivity(e)
}

// sourceSend fires the paced per-cell transmission; a typed callback so the
// per-cell re-arm in armSend allocates nothing.
func sourceSend(e *sim.Engine, p sim.Payload) {
	p.Obj.(*Source).sendCell(e)
}

// armSend schedules the next cell transmission if none is pending.
func (s *Source) armSend(e *sim.Engine) {
	if s.sendPending {
		return
	}
	s.sendPending = true
	gap := sim.DurationOf(1, s.acr) // pacing: one cell per 1/ACR seconds
	// ACR retention: a long idle gap invalidates the stale ACR.
	if s.everSent && s.acr > 0 {
		idle := e.Now().Sub(s.lastSend)
		limit := sim.Duration(s.Params.TOF * float64(s.Params.Nrm) / s.acr * float64(sim.Second))
		if idle > limit {
			s.setACR(e.Now(), s.Params.ICR)
			gap = 0 // send immediately on resume
		}
	} else if !s.everSent {
		gap = 0
	}
	e.AfterFunc(gap, sourceSend, sim.Payload{Obj: s})
}

// sendCell emits one cell and re-arms the loop while the pattern stays
// active.
func (s *Source) sendCell(e *sim.Engine) {
	s.sendPending = false
	if !s.Pattern.ActiveAt(e.Now()) {
		return
	}
	if s.sinceRM >= s.Params.Nrm-1 {
		s.emitRM(e, false)
		s.armSend(e)
		return
	}
	c := Cell{VC: s.VC, Kind: Data}
	s.sinceRM++
	s.cellsSent++
	s.tel.cellsSent.Inc()
	s.everSent = true
	s.lastSend = e.Now()
	s.Out.Receive(e, c)
	s.armSend(e)
}

// Receive implements Sink: the source consumes backward RM cells addressed
// to its VC and adjusts ACR. Other cells are ignored (a physical source
// would never see them).
func (s *Source) Receive(e *sim.Engine, c Cell) {
	if c.Kind != BackwardRM || c.VC != s.VC || !s.started {
		return
	}
	s.bRMsSeen++
	s.tel.brmSeen.Inc()
	s.unansweredRM = 0
	s.setACR(e.Now(), s.Params.AdjustACRNI(s.acr, c.CI, c.NI, c.ER))
}

// setACR updates the rate, notifies the observer, and re-paces a pending
// transmission so a rate change takes effect immediately rather than after
// the previously scheduled gap.
func (s *Source) setACR(now sim.Time, acr float64) {
	if acr == s.acr {
		return
	}
	s.acr = acr
	s.tel.rateChanges.Inc()
	if s.OnRateChange != nil {
		s.OnRateChange(now, acr)
	}
}
