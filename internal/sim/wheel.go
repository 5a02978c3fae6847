package sim

import "math/bits"

// wheelScheduler is a hierarchical timer wheel: 11 levels of 64 slots,
// where level l has slot width 2^(6l) ns, so level 0 resolves single
// nanoseconds and the top level spans the whole int64 time range. An event
// is filed at the level matching the magnitude of its delay (delta =
// at − cur) and in the slot addressed by the corresponding 6 bits of its
// absolute time, which makes scheduling O(1): two shifts, a mask and a
// pointer write, with no comparison cascade like the heap's sift-up.
//
// Slots are intrusive singly-linked lists threaded through the events' own
// next pointers, so the wheel owns no per-slot storage at all: filing,
// cascading and popping never allocate, and a fresh wheel costs one struct,
// not 704 lazily grown slices. (The slice-based slots of the first wheel
// were the backend's allocation regression: every engine re-paid the slot
// warmup, ~270 allocs and 53 KB per 1000-event run.) List order within a
// slot is immaterial — every selection scans the whole slot and decides by
// (time, seq), which are unique per event — so push-front is safe.
//
// Determinism contract. The wheel must emit events in exactly (time, seq)
// order — the same order as the binary heap — or runs would stop being
// bit-identical across backends. Three properties deliver that:
//
//  1. cur (the cursor) is a lower bound on every pending event's time, and
//     only advances to the time of the event about to be handed out, so a
//     level-0 slot can only ever hold events of one single timestamp
//     (two timestamps in one slot would differ by ≥ 64 ns, but level-0
//     residence requires delta < 64 ns against a monotone cursor).
//  2. Every slot tracks the minimum event time it holds, and every level
//     tracks its minimum slot, so the global minimum is an O(levels) scan
//     with no slot contents touched.
//  3. When the global minimum lives above level 0, its slot is cascaded:
//     drained and refiled relative to the minimum itself, which lands the
//     minimum event(s) at level 0 (delta 0). Ties across levels cascade
//     highest level first, so every event sharing the minimal timestamp
//     reaches the same level-0 slot before one of them is popped — only
//     then can the seq tie-break see all contenders.
//
// Cancelled events are discarded lazily at pop, exactly like the heap, so
// Len and the drain order of cancelled cells match across backends.
//
// Complexity: an event is refiled at most once per level it descends
// through on the cascade path, so the amortized cost per event is O(levels)
// worst-case and O(1) for the short delays (µs–ms against a ns clock) that
// dominate simulation workloads. Pathological schedules that repeatedly
// collide far-future events into one slot degrade toward the heap's cost,
// never below correctness.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 11 // 11 × 6 bits ≥ 63: any int64 delay fits without overflow
)

type wheelScheduler struct {
	cur Time // lower bound on every pending event's time
	n   int

	// slots[l][s] heads the intrusive list of events filed at level l,
	// slot s; events link through their next field.
	slots [wheelLevels][wheelSlots]*event
	// occ[l] has bit s set iff slots[l][s] is non-empty.
	occ [wheelLevels]uint64
	// slotMin[l][s] is the minimum event time in slots[l][s]; valid only
	// while the occupancy bit is set.
	slotMin [wheelLevels][wheelSlots]Time
	// levelMin[l] / levelMinSlot[l] cache the minimum slotMin of level l
	// and its slot index; valid only while occ[l] != 0.
	levelMin     [wheelLevels]Time
	levelMinSlot [wheelLevels]int
}

func newWheelScheduler() *wheelScheduler { return &wheelScheduler{} }

func (w *wheelScheduler) Len() int { return w.n }

func (w *wheelScheduler) schedule(ev *event) {
	w.place(ev)
	w.n++
}

// place files ev by the magnitude of its delay against the cursor. The
// engine (and the cascade loop) guarantee ev.at ≥ w.cur.
func (w *wheelScheduler) place(ev *event) {
	delta := ev.at - w.cur
	l := 0
	if delta > 0 {
		l = (bits.Len64(uint64(delta)) - 1) / wheelBits
	}
	s := int(uint64(ev.at)>>(l*wheelBits)) & wheelMask
	ev.next = w.slots[l][s]
	w.slots[l][s] = ev
	bit := uint64(1) << s
	if w.occ[l]&bit == 0 {
		if w.occ[l] == 0 || ev.at < w.levelMin[l] {
			w.levelMin[l], w.levelMinSlot[l] = ev.at, s
		}
		w.occ[l] |= bit
		w.slotMin[l][s] = ev.at
		return
	}
	if ev.at < w.slotMin[l][s] {
		w.slotMin[l][s] = ev.at
	}
	if ev.at < w.levelMin[l] {
		w.levelMin[l], w.levelMinSlot[l] = ev.at, s
	}
}

// refreshLevelMin recomputes the cached minimum of level l from its
// occupied slots (after a slot was drained or emptied).
func (w *wheelScheduler) refreshLevelMin(l int) {
	first := true
	for b := w.occ[l]; b != 0; b &= b - 1 {
		s := bits.TrailingZeros64(b)
		if first || w.slotMin[l][s] < w.levelMin[l] {
			w.levelMin[l], w.levelMinSlot[l] = w.slotMin[l][s], s
		}
		first = false
	}
}

// pop settles the earliest pending event down to level 0, unlinks it and
// returns it, or returns nil when the calendar is empty or the earliest
// event orders after (bound, boundSeq). Leaving the cursor untouched when
// the earliest time lies beyond bound is what lets RunUntil stop at a
// deadline and still accept later schedules between the deadline and the
// next event: the cursor never moves past a time the engine has reached.
// When only the seq is beyond, the cursor rests on bound, the time of the
// timer cell the engine pops instead, and the earliest event stays at
// level 0.
func (w *wheelScheduler) pop(bound Time, boundSeq uint64) *event {
	for {
		// Global minimum: O(levels) scan of the cached level minima.
		// Ties prefer the highest level so that every slot holding the
		// minimal timestamp is cascaded into level 0 before we pick a
		// winner by seq.
		best := -1
		for l := 0; l < wheelLevels; l++ {
			if w.occ[l] != 0 && (best < 0 || w.levelMin[l] <= w.levelMin[best]) {
				best = l
			}
		}
		if best < 0 || w.levelMin[best] > bound {
			return nil
		}
		m, s := w.levelMin[best], w.levelMinSlot[best]
		w.cur = m
		if best == 0 {
			// A level-0 slot holds a single timestamp (see the cursor
			// monotonicity argument above), so the tie-break is seq alone.
			// One walk finds the winner and its predecessor for the unlink.
			ev, evPrev := w.slots[0][s], (*event)(nil)
			for prev, c := ev, ev.next; c != nil; prev, c = c, c.next {
				if c.seq < ev.seq {
					ev, evPrev = c, prev
				}
			}
			if m == bound && ev.seq > boundSeq {
				return nil
			}
			if evPrev == nil {
				w.slots[0][s] = ev.next
			} else {
				evPrev.next = ev.next
			}
			ev.next = nil
			if w.slots[0][s] == nil {
				w.occ[0] &^= 1 << s
				w.refreshLevelMin(0)
			}
			w.n--
			return ev
		}
		// Cascade: detach the minimum's slot and refile each event relative
		// to cur=m. The minimum itself refiles with delta 0, i.e. at level
		// 0. The list head is detached first because place may refile a
		// far-future event right back into the slot being drained.
		head := w.slots[best][s]
		w.slots[best][s] = nil
		w.occ[best] &^= 1 << s
		w.refreshLevelMin(best)
		for head != nil {
			ev := head
			head = head.next
			ev.next = nil
			w.place(ev)
		}
	}
}
