package shard

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// spinFor is how long a waiter polls its condition before it parks. It is
// set by what a park costs, not by the workload: a parked waiter's
// processor goes idle and waking it took 50–100 µs on the virtualised host
// this was measured on, so polling for about that long is never worse than
// twice the best choice, whatever the wait turns out to be. Against the
// benchmark chain's barrier waits (6 µs mean, one in twenty over 32 µs,
// one in fifty over 64 µs) it parks on about one wait in a hundred. A
// constant, not a setting: DESIGN.md §14.
const spinFor = 100 * time.Microsecond

// running counts the shard goroutines of every Advance in progress in the
// process. A waiter spins only while all of them can have a processor each:
// when a fleet runs several sharded jobs at once on too few processors, a
// spinning waiter holds the processor another job's shard needs.
var running atomic.Int64

// processors is how many shard goroutines can run at the same time.
// Advance reads it once per call: runtime.GOMAXPROCS takes the scheduler's
// lock even to answer.
func processors() int64 { return int64(min(runtime.GOMAXPROCS(0), runtime.NumCPU())) }

// maxMisses caps the spin back-off at one spin in 1<<maxMisses waits.
const maxMisses = 6

// spinPolls is the number of polls between two looks at the clock.
const spinPolls = 128

// cacheLine is the padding unit that keeps words spun on by different
// goroutines from sharing a line.
const cacheLine = 64

// Sentinel values of Group.deadline. Real deadlines are simulated times
// after the group's current time, so they are positive.
const (
	deadlineIdle int64 = -1 // no window published yet in this Advance
	deadlineStop int64 = -2 // Advance is over: workers return
)

// Panic is the value Advance panics with when an event handler panicked on
// one of its shards: the original panic value, the shard it ran on and the
// stack of the goroutine that raised it.
type Panic struct {
	Shard int
	Value any
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("shard %d panicked: %v\n%s", p.Shard, p.Value, p.Stack)
}

// slotState is one shard's side of the rendezvous. parked and wake form a
// one-waiter parking place; the remaining fields are written by the
// shard's goroutine inside its window and read by the caller's goroutine
// after the shard has arrived (the arrival counter orders the two).
type slotState struct {
	parked atomic.Bool
	wake   chan struct{} // capacity 1: at most one wake-up is in flight

	start, end time.Duration // this window's RunUntil, as offsets from Advance's start
	parks      uint64        // waits that went on to park: no spin, or one that ran out
	// Spin back-off, touched only by the owner: misses is the number of
	// spins in a row that ran out, skip how many waits still park at once.
	misses, skip uint8
	panicked     *Panic
}

// slot pads slotState to whole cache lines, so one shard's parking flag and
// timestamps never share a line with a neighbour's.
type slot struct {
	slotState
	_ [cacheLine - unsafe.Sizeof(slotState{})%cacheLine]byte
}

// paddedInt64 is an atomic word alone on its cache line.
type paddedInt64 struct {
	atomic.Int64
	_ [cacheLine - 8]byte
}

// await returns once ready reports true. With spin set it polls ready for
// up to spinFor first; then it parks on the slot until a release. A wake-up
// is a hint, so it polls again before returning. Only the slot's owner
// calls await.
//
// The park is a two-flag handshake: the waiter sets parked and then reads
// the condition; the releaser makes the condition true and then reads
// parked. sync/atomic operations are sequentially consistent, so at least
// one side sees the other's write — either the waiter finds the condition
// true, or the releaser finds parked set and sends the wake-up.
func (s *slot) await(spin bool, ready func() bool) {
	switch {
	case !spin:
	case s.skip > 0:
		s.skip--
	default:
		for start := time.Now(); time.Since(start) < spinFor; {
			for i := 0; i < spinPolls; i++ {
				if ready() {
					s.misses = 0
					return
				}
			}
		}
		// The spin ran out: whoever this waits for is not running, or is far
		// behind. Each miss in a row doubles the number of waits that park at
		// once before the next spin is tried.
		if s.misses < maxMisses {
			s.misses++
		}
		s.skip = 1<<s.misses - 1
	}
	s.parks++
	for {
		s.parked.Store(true)
		if ready() {
			if !s.parked.CompareAndSwap(true, false) {
				<-s.wake // a releaser claimed the flag: take its wake-up
			}
			return
		}
		<-s.wake
		if ready() {
			return
		}
	}
}

// release wakes the owners of slots that are parked; for one that is not it
// costs a load. Call it after making the owners' condition true; spare says
// whether there is a processor for every shard goroutine.
//
// The Go scheduler queues a woken goroutine behind its waker, on the
// waker's processor, and another processor takes it from there only after a
// deliberate delay. With a processor for every shard the releaser therefore
// steps aside: the woken goroutine runs at once where it is, and the idle
// processor that the wake-up roused picks the releaser up instead. With too
// few processors staying put is what is wanted — the shards of one group
// then take turns on one processor, sharing its cache.
func release(slots []slot, spare bool) {
	woke := false
	for i := range slots {
		if s := &slots[i]; s.parked.Load() && s.parked.CompareAndSwap(true, false) {
			s.wake <- struct{}{}
			woke = true
		}
	}
	if woke && spare {
		runtime.Gosched()
	}
}
