package sim

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
type heapScheduler struct {
	q []heapEntry
	// Pads the struct to a cache line for the reason Engine is padded: the
	// slice length is written on every schedule and pop.
	_ [40]byte
}

func newHeapScheduler() *heapScheduler { return &heapScheduler{} }

func (h *heapScheduler) Name() string { return string(SchedulerHeap) }

func (h *heapScheduler) Len() int { return len(h.q) }

func (h *heapScheduler) schedule(ev *event) {
	x := heapEntry{at: ev.at, seq: ev.seq, ev: ev}
	q := h.q
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

func (h *heapScheduler) pop(bound Time) *event {
	q := h.q
	if len(q) == 0 || q[0].at > bound {
		return nil
	}
	ev := q[0].ev
	n := len(q) - 1
	x := q[n]
	// Zero the vacated tail slot: beyond len the backing array must not
	// alias a cell that is about to be recycled for another event.
	q[n] = heapEntry{}
	q = q[:n]
	h.q = q
	if n == 0 {
		return ev
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&x) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = x
	return ev
}
