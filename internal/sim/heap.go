package sim

import "math/bits"

// heapEntry is one calendar slot. The ordering key (at, seq) is copied out
// of the event cell and stored beside the pointer, so sifting compares and
// moves 24-byte values in one contiguous array and never dereferences a
// cell: the cell is touched again only when the engine fires it.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *event
}

// before reports whether a orders strictly ahead of b. (time, seq) keys are
// unique per engine, so the order is total and any correct heap emits the
// same sequence.
func (a *heapEntry) before(b *heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// heapScheduler is the default backend: a binary min-heap on (time, seq),
// O(log n) per operation, and the reference ordering the wheel is
// cross-checked against. Sift-up and sift-down move a hole through the
// array (one write per level, the displaced entry written once at the end)
// instead of swapping. Binary, not 4-ary: measured on the bench's atm_chain
// and tcp_timers workloads the wider node lost 2–9 % (CHANGES.md, PR 14).
//
// pop is lazy. It hands out the root's cell but leaves the root entry in
// place as a hole (ev nil, hole == 1) instead of moving the tail entry up
// and sifting it down. The usual next call is the fired handler's own
// schedule, which drops its key into the hole and sifts it down: one sift
// per fired event where an eager pop pays a sift-down and then the
// schedule's sift-up. Any key may fill a root hole — sift-down restores the
// heap whatever it is — so this needs nothing from the engine's t ≥ now
// rule. A hole nobody filled is closed the eager way by the next pop; after
// Stop (or a handler panic) it simply stays open until then. While it is
// open q[0] keeps the popped key, which is ≤ every other entry, so the rest
// of the array is a valid heap throughout.
type heapScheduler struct {
	q []heapEntry
	// hole is 1 while q[0] is a popped, not yet refilled root; else 0.
	hole int
	// Pads the struct to a cache line for the reason Engine is padded: the
	// slice length is written on every schedule and pop.
	_ [32]byte
}

func newHeapScheduler() *heapScheduler { return &heapScheduler{} }

func (h *heapScheduler) Len() int { return len(h.q) - h.hole }

func (h *heapScheduler) schedule(ev *event) {
	x := heapEntry{at: ev.at, seq: ev.seq, ev: ev}
	q := h.q
	if h.hole != 0 {
		h.hole = 0
		siftDown(q, x)
		return
	}
	if len(q) == cap(q) {
		// Double rather than let append grow a large slice in 1.25× steps:
		// those leave ~4× the final array behind as garbage per engine,
		// which at 24 B an entry cost a 20 k-event calendar +3 MB of peak
		// RSS (CHANGES.md, PR 14); doubling leaves 1×, as 8 B entries did.
		q = append(make([]heapEntry, 0, max(2*cap(q), 64)), q...)
	}
	q = append(q, x)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
	h.q = q
}

func (h *heapScheduler) pop(bound Time, boundSeq uint64) *event {
	if h.hole != 0 {
		// The last handler scheduled nothing: close its hole with the tail
		// entry, as an eager pop would have.
		h.hole = 0
		h.removeRoot()
	}
	q := h.q
	if len(q) == 0 || (&heapEntry{at: bound, seq: boundSeq}).before(&q[0]) {
		return nil
	}
	ev := q[0].ev
	// The hole holds no pointer either: the engine recycles ev right away.
	q[0].ev = nil
	h.hole = 1
	return ev
}

// popRoot removes and returns the root's cell eagerly, leaving no hole: the
// timer heap's pop, rare enough that a hole would save nothing.
func (h *heapScheduler) popRoot() *event {
	ev := h.q[0].ev
	h.removeRoot()
	return ev
}

// removeRoot moves the tail entry into the root and sinks it.
func (h *heapScheduler) removeRoot() {
	q := h.q
	n := len(q) - 1
	x := q[n]
	// Zero the vacated tail slot: beyond len the backing array must not
	// alias a cell that is about to be recycled for another event.
	q[n] = heapEntry{}
	q = q[:n]
	h.q = q
	if n > 0 {
		siftDown(q, x)
	}
}

// siftDown writes x into the vacant root of q and sinks it to its place.
//
// Which child is smaller is a coin flip the branch predictor loses half the
// time, and while the calendar sits in L1 that mispredict is most of a
// level's cost. So the choice is computed, not branched on: the borrow out
// of the 128-bit subtraction (at, seq)[right] − (at, seq)[left] is 1 exactly
// when right orders first (SUB/SBB on amd64, SUBS/SBCS on arm64). Comparing
// at as uint64 is sound because simulated time is never negative: the clock
// starts at zero, AtFunc refuses t < now, and Time.Add clamps at zero. The
// compare against x stays an ordinary branch — it goes one way until the
// last level, so it predicts well.
//
// The computed choice has a price on a calendar too large for the cache:
// past a predicted branch the CPU is already loading the next level's
// children, while behind a borrow chain every level's miss waits for the
// one above. It is paid only far from any workload here (DESIGN.md §8 has
// the crossover), so there is one path, not a switch on len(q).
func siftDown(q []heapEntry, x heapEntry) {
	n := len(q)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n {
			_, b := bits.Sub64(q[r].seq, q[c].seq, 0)
			_, b = bits.Sub64(uint64(q[r].at), uint64(q[c].at), b)
			c += int(b)
		}
		if !q[c].before(&x) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = x
}
