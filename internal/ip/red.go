package ip

import (
	"math"

	"repro/internal/sim"
	"repro/internal/workload"
)

// The RED gateway's parameters: the values [FJ93] recommends and its
// simulations use.
const (
	// redMinTh and redMaxTh are the average-queue thresholds in packets.
	redMinTh = 5
	redMaxTh = 15
	// redMaxP is the maximum early-drop probability.
	redMaxP = 0.02
	// redWq is the averaging weight.
	redWq = 0.002
)

// RED is Floyd and Jacobson's Random Early Detection gateway [FJ93], one of
// the two router-mechanism baselines of Section 4. The average queue length
// is an exponentially weighted moving average sampled at every arrival;
// between redMinTh and redMaxTh packets are dropped with probability
// growing to redMaxP (using the count-since-last-drop correction from the
// paper), above redMaxTh every packet is dropped. The seed is its one
// setting: the thresholds are [FJ93]'s constants, which no experiment
// varies. Build it with NewRED.
type RED struct {
	// Seed makes the drop lottery deterministic.
	Seed uint64

	// wq is the averaging weight: redWq, which tests raise so the average
	// converges within a few packets.
	wq    float64
	avg   float64
	count int
	rng   *workload.RNG
	port  *Port
	// idle tracking for the empty-queue correction.
	idleSince sim.Time
	idle      bool
}

// NewRED returns a RED gateway whose drop lottery draws from seed.
func NewRED(seed uint64) *RED { return &RED{Seed: seed, wq: redWq} }

// Name implements Discipline.
func (r *RED) Name() string { return "RED" }

// Attach implements Discipline.
func (r *RED) Attach(_ *sim.Engine, p *Port) {
	r.port = p
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
		// Without this correction a burst can pin the average above redMaxTh
		// while TCP sits in RTO backoff, deadlocking the gateway ([FJ93]
		// §11 describes exactly this hazard).
		txTime := sim.DurationOf(552*8, r.port.RateBPS)
		if txTime > 0 {
			m := float64(now.Sub(r.idleSince)) / float64(txTime)
			if m > 0 {
				r.avg *= math.Pow(1-r.wq, m)
			}
		}
		r.idle = false
	}
	r.avg = (1-r.wq)*r.avg + r.wq*q
}

// shouldDrop runs the RED lottery for the current average.
func (r *RED) shouldDrop() bool {
	switch {
	case r.avg < redMinTh:
		r.count = -1
		return false
	case r.avg >= redMaxTh:
		r.count = 0
		return true
	}
	r.count++
	pb := redMaxP * (r.avg - redMinTh) / (redMaxTh - redMinTh)
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
