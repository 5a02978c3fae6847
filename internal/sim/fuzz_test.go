package sim

import (
	"bytes"
	"sort"
	"testing"
)

// A fuzz program is a byte string read three bytes at a time — opcode,
// width, mantissa — and decoded against a clock the decoder advances
// itself (every RunUntil ends exactly on its deadline), so the ops carry
// absolute times and replay identically on any calendar. The opcode's low
// two bits pick the op; on the two scheduling ops its high six are a repeat
// count (1–64 events at the one instant), so a short input — cheap for the
// fuzzer to mutate and minimize — can still pile thousands of events onto
// one timestamp.
const (
	fuzzSchedule = iota // At(clock+delay): plain events
	fuzzResched         // AtFunc(clock+delay): fires, then schedules a child at its own instant
	fuzzCancel          // cancel the (width<<8|mantissa)-th scheduled event, fired or not
	fuzzRunUntil        // RunUntil(clock+delay)
)

// fuzzMaxEvents and fuzzMaxOps bound one program (the wheel is quadratic
// in the events sharing one instant); the seed corpus needs 10⁴ events.
const (
	fuzzMaxEvents = 10_000
	fuzzMaxOps    = 1 << 12
)

type fuzzOp struct {
	kind   byte
	at     Time
	rep    int // scheduling ops: how many events
	target int // fuzzCancel: which one
}

// fuzzDelay stratifies delays by magnitude: width picks a power of two
// from 1 to 2⁶² (0 is a zero delay), the mantissa a point within the octave.
func fuzzDelay(width, mantissa byte) Duration {
	k := uint(width) % 64
	if k == 0 {
		return 0
	}
	base := int64(1) << (k - 1)
	if base < 256 {
		return Duration(base + int64(mantissa)%base)
	}
	return Duration(base + int64(mantissa)*(base>>8))
}

func decodeFuzzProgram(prog []byte) []fuzzOp {
	if len(prog) > 3*fuzzMaxOps {
		prog = prog[:3*fuzzMaxOps]
	}
	ops := make([]fuzzOp, 0, len(prog)/3)
	clock, events := Time(0), 0
	for ; len(prog) >= 3; prog = prog[3:] {
		op := fuzzOp{kind: prog[0] % 4, target: int(prog[1])<<8 | int(prog[2])}
		if op.kind == fuzzSchedule || op.kind == fuzzResched {
			op.rep = min(1+int(prog[0]>>2), fuzzMaxEvents-events)
			events += op.rep
		}
		// Clamp instead of overflowing: the far end of time is a legal instant.
		if d := fuzzDelay(prog[1], prog[2]); d > Duration(maxTime-clock) {
			op.at = maxTime
		} else {
			op.at = clock.Add(d)
		}
		if op.kind == fuzzRunUntil {
			clock = op.at
		}
		ops = append(ops, op)
	}
	return ops
}

// fuzzRec is one line of a replay's log: an event firing ('f'), a child
// firing ('c', id is the parent's), or the state after a run op ('r': the
// clock, Pending and Canceled).
type fuzzRec struct {
	kind     byte
	at       Time
	id       int
	pending  int
	canceled uint64
}

type fuzzLog struct{ recs []fuzzRec }

func fuzzFireResched(e *Engine, p Payload) {
	l := p.Obj.(*fuzzLog)
	l.recs = append(l.recs, fuzzRec{kind: 'f', at: e.Now(), id: int(p.I)})
	e.AfterFunc(0, fuzzFireChild, p)
}

func fuzzFireChild(e *Engine, p Payload) {
	l := p.Obj.(*fuzzLog)
	l.recs = append(l.recs, fuzzRec{kind: 'c', at: e.Now(), id: int(p.I)})
}

// replayFuzzOps runs ops on an engine with the given backend, ending with
// Run, and returns the log and the Scheduled count.
func replayFuzzOps(kind SchedulerKind, ops []fuzzOp) ([]fuzzRec, uint64) {
	e := NewEngine(WithScheduler(kind))
	l := &fuzzLog{}
	var refs []EventRef
	checkpoint := func() {
		l.recs = append(l.recs, fuzzRec{kind: 'r', at: e.Now(), pending: e.Pending(), canceled: e.Canceled()})
	}
	for _, op := range ops {
		switch op.kind {
		case fuzzSchedule:
			for r := 0; r < op.rep; r++ {
				id := len(refs)
				refs = append(refs, e.At(op.at, func(en *Engine) {
					l.recs = append(l.recs, fuzzRec{kind: 'f', at: en.Now(), id: id})
				}))
			}
		case fuzzResched:
			for r := 0; r < op.rep; r++ {
				refs = append(refs, e.AtFunc(op.at, fuzzFireResched, Payload{Obj: l, I: int64(len(refs))}))
			}
		case fuzzCancel:
			if len(refs) > 0 {
				refs[op.target%len(refs)].Cancel()
			}
		case fuzzRunUntil:
			e.RunUntil(op.at)
			checkpoint()
		}
	}
	e.Run()
	checkpoint()
	return l.recs, e.Scheduled()
}

// oracleEvent is a pending event of the reference calendar.
type oracleEvent struct {
	at      Time
	seq     uint64
	kind    byte // 'f' or 'c'
	id      int
	resched bool
	stopped bool
	done    bool // fired or drained: a later cancel is a no-op
}

// orderOracle is the reference the backends are checked against: the
// pending events as a slice kept sorted by (time, seq), the engine's run
// loop restated over it with no heap and no wheel.
type orderOracle struct {
	now      Time
	seq      uint64
	canceled uint64
	pending  []*oracleEvent
	recs     []fuzzRec
}

func (o *orderOracle) schedule(ev *oracleEvent) {
	ev.seq = o.seq
	o.seq++
	i := sort.Search(len(o.pending), func(i int) bool {
		p := o.pending[i]
		return ev.at < p.at || (ev.at == p.at && ev.seq < p.seq)
	})
	o.pending = append(o.pending, nil)
	copy(o.pending[i+1:], o.pending[i:])
	o.pending[i] = ev
}

func (o *orderOracle) runTo(deadline Time) {
	for len(o.pending) > 0 && o.pending[0].at <= deadline {
		ev := o.pending[0]
		o.pending = o.pending[1:]
		ev.done = true
		if ev.stopped {
			o.canceled++
			continue
		}
		o.now = ev.at
		o.recs = append(o.recs, fuzzRec{kind: ev.kind, at: o.now, id: ev.id})
		if ev.resched {
			o.schedule(&oracleEvent{at: o.now, kind: 'c', id: ev.id})
		}
	}
}

func (o *orderOracle) checkpoint() {
	o.recs = append(o.recs, fuzzRec{kind: 'r', at: o.now, pending: len(o.pending), canceled: o.canceled})
}

func oracleFuzzOps(ops []fuzzOp) ([]fuzzRec, uint64) {
	o := &orderOracle{}
	var byID []*oracleEvent
	for _, op := range ops {
		switch op.kind {
		case fuzzSchedule, fuzzResched:
			for r := 0; r < op.rep; r++ {
				ev := &oracleEvent{at: op.at, kind: 'f', id: len(byID), resched: op.kind == fuzzResched}
				byID = append(byID, ev)
				o.schedule(ev)
			}
		case fuzzCancel:
			if len(byID) > 0 {
				if ev := byID[op.target%len(byID)]; !ev.done {
					ev.stopped = true
				}
			}
		case fuzzRunUntil:
			o.runTo(op.at)
			o.now = op.at
			o.checkpoint()
		}
	}
	o.runTo(maxTime)
	o.checkpoint()
	return o.recs, o.seq
}

// FuzzSchedulerOrder replays schedule/cancel/RunUntil programs on both
// backends and on the sorted-slice oracle and requires three identical
// logs: every firing's (time, id), and the clock, Pending and Canceled
// after every run.
func FuzzSchedulerOrder(f *testing.F) {
	const fuzzBurst = 63 << 2
	// 10⁴ events at one instant; 10³ zero-delay reschedulers ahead of 10³
	// events at a later one.
	f.Add(bytes.Repeat([]byte{fuzzBurst | fuzzSchedule, 7, 0}, 157))
	f.Add(append(bytes.Repeat([]byte{fuzzBurst | fuzzSchedule, 7, 0}, 16), bytes.Repeat([]byte{fuzzBurst | fuzzResched, 0, 0}, 16)...))
	// Zero delays around a zero-length run.
	f.Add([]byte{fuzzSchedule, 0, 0, fuzzResched, 0, 0, fuzzRunUntil, 0, 0, fuzzSchedule, 0, 0})
	// pop(bound) with the bound below, at and above the minimum (event at
	// 64: run to 32, to 64; event at 128: run to 160), then on an empty
	// calendar.
	f.Add([]byte{
		fuzzSchedule, 7, 0, fuzzRunUntil, 6, 0, fuzzRunUntil, 6, 0,
		fuzzSchedule, 7, 0, fuzzRunUntil, 7, 32, fuzzRunUntil, 7, 0,
	})
	f.Add([]byte{fuzzRunUntil, 20, 9, fuzzRunUntil, 0, 0})
	// Cancels of live, fired and drained events; delays up to the end of time.
	f.Add([]byte{
		fuzzSchedule, 63, 255, fuzzResched, 40, 1, fuzzSchedule, 12, 3,
		fuzzCancel, 0, 1, fuzzRunUntil, 13, 0, fuzzCancel, 0, 2,
		fuzzSchedule, 63, 255, fuzzRunUntil, 63, 0, fuzzCancel, 0, 1,
		fuzzResched, 63, 255, fuzzRunUntil, 63, 255, fuzzSchedule, 63, 0,
	})

	f.Fuzz(func(t *testing.T, prog []byte) {
		ops := decodeFuzzProgram(prog)
		want, wantScheduled := oracleFuzzOps(ops)
		for _, kind := range SchedulerKinds() {
			got, scheduled := replayFuzzOps(kind, ops)
			if scheduled != wantScheduled {
				t.Fatalf("%s: Scheduled() = %d, oracle %d", kind, scheduled, wantScheduled)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d log records, oracle %d", kind, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: record %d = %+v, oracle %+v", kind, i, got[i], want[i])
				}
			}
		}
	})
}
