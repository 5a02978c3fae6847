// Package ring provides the reusable power-of-two ring buffer behind every
// data-plane FIFO (ATM link queues, IP port queues, edge segmentation
// queues, in-flight propagation pipes). It replaces the append-and-shift
// slice pattern, whose backing array grows without bound under a bursty
// producer: a ring's capacity grows only to the peak occupancy ever
// reached, then stabilizes — push and pop allocate nothing in steady state.
package ring

// minCap is the capacity of the first allocation; power-of-two growth
// proceeds from here. Small enough that short queues stay cheap, large
// enough that a busy queue reaches steady state in a few doublings.
const minCap = 8

// Ring is a FIFO over a power-of-two circular buffer. The zero value is an
// empty ring ready for use. Not safe for concurrent use — rings live
// inside single-engine components, which are single-goroutine by the
// engine contract.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest element; valid only when n > 0
	n    int
}

// Len returns the number of buffered elements.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the current capacity of the backing array. It grows to the
// peak occupancy and never shrinks — the stabilization property the
// data-plane queues rely on.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Push appends v at the tail, growing the backing array (doubling,
// re-linearized) only when full.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PushSlot appends a zero element and returns a pointer to it, valid until
// the next Push or Pop, for the caller to fill in place: a struct of several
// words passed to Push by value is spilled and copied again on the way.
func (r *Ring[T]) PushSlot() *T {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.n++
	return &r.buf[(r.head+r.n-1)&(len(r.buf)-1)]
}

// Pop removes and returns the head element. It panics on an empty ring —
// like a slice index out of range, popping nothing is always a logic error
// in the queue disciplines built on top. The vacated slot is zeroed so the
// ring never pins packets or payloads past their dequeue.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("ring: Pop on empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Peek returns a pointer to the head element without removing it. The
// pointer is valid only until the next Push or Pop. It panics when empty.
func (r *Ring[T]) Peek() *T {
	if r.n == 0 {
		panic("ring: Peek on empty ring")
	}
	return &r.buf[r.head]
}

// grow doubles the backing array and re-linearizes the contents so the
// head returns to index 0.
func (r *Ring[T]) grow() {
	c := len(r.buf) * 2
	if c < minCap {
		c = minCap
	}
	buf := make([]T, c)
	if r.n > 0 {
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.n-k])
	}
	r.buf = buf
	r.head = 0
}
