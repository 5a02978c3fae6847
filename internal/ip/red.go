package ip

import (
	"math"

	"repro/internal/sim"
	"repro/internal/workload"
)

// RED is Floyd and Jacobson's Random Early Detection gateway [FJ93], one of
// the two router-mechanism baselines of Section 4. The average queue length
// is an exponentially weighted moving average sampled at every arrival;
// between MinTh and MaxTh packets are dropped with probability growing to
// MaxP (using the count-since-last-drop correction from the paper), above
// MaxTh every packet is dropped.
type RED struct {
	// MinTh and MaxTh are the average-queue thresholds in packets
	// (defaults 5 and 15).
	MinTh float64
	MaxTh float64
	// MaxP is the maximum early-drop probability (default 0.02).
	MaxP float64
	// Wq is the averaging weight (default 0.002).
	Wq float64
	// Seed makes the drop lottery deterministic.
	Seed uint64

	avg   float64
	count int
	rng   *workload.RNG
	port  *Port
	// idle tracking for the empty-queue correction.
	idleSince sim.Time
	idle      bool
}

// NewRED returns a factory-style constructor result with defaults applied
// at Attach.
func NewRED(seed uint64) *RED { return &RED{Seed: seed} }

// Name implements Discipline.
func (r *RED) Name() string { return "RED" }

// Attach implements Discipline.
func (r *RED) Attach(_ *sim.Engine, p *Port) {
	r.port = p
	if r.MinTh == 0 {
		r.MinTh = 5
	}
	if r.MaxTh == 0 {
		r.MaxTh = 15
	}
	if r.MaxP == 0 {
		r.MaxP = 0.02
	}
	if r.Wq == 0 {
		r.Wq = 0.002
	}
	r.rng = workload.NewRNG(r.Seed)
	r.count = -1
}

// updateAvg folds the instantaneous queue length into the average,
// including the [FJ93] idle-period correction: an empty queue decays the
// average as if small packets had been arriving at line rate.
func (r *RED) updateAvg(now sim.Time) {
	q := float64(r.port.QueueLen())
	if q == 0 && r.idle {
		// m = idle time / typical transmission time (512+40 byte packet):
		// decay the average as if m small packets had been transmitted.
		// Without this correction a burst can pin the average above MaxTh
		// while TCP sits in RTO backoff, deadlocking the gateway ([FJ93]
		// §11 describes exactly this hazard).
		txTime := sim.DurationOf(552*8, r.port.RateBPS)
		if txTime > 0 {
			m := float64(now.Sub(r.idleSince)) / float64(txTime)
			if m > 0 {
				r.avg *= math.Pow(1-r.Wq, m)
			}
		}
		r.idle = false
	}
	r.avg = (1-r.Wq)*r.avg + r.Wq*q
}

// shouldDrop runs the RED lottery for the current average.
func (r *RED) shouldDrop() bool {
	switch {
	case r.avg < r.MinTh:
		r.count = -1
		return false
	case r.avg >= r.MaxTh:
		r.count = 0
		return true
	}
	r.count++
	pb := r.MaxP * (r.avg - r.MinTh) / (r.MaxTh - r.MinTh)
	pa := pb / (1 - float64(r.count)*pb)
	if pa < 0 || pa > 1 {
		pa = 1
	}
	if r.rng.Float64() < pa {
		r.count = 0
		return true
	}
	return false
}

// Admit implements Discipline.
func (r *RED) Admit(now sim.Time, p *Packet) Action {
	if p.Ack {
		return Action{}
	}
	r.updateAvg(now)
	if r.shouldDrop() {
		return Action{Drop: true}
	}
	return Action{}
}

// OnTransmit implements Discipline: track the start of idle periods for the
// average correction.
func (r *RED) OnTransmit(now sim.Time, _ *Packet) {
	if r.port.QueueLen() == 0 {
		r.idle = true
		r.idleSince = now
	}
}
