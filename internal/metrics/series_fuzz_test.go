package metrics

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// FuzzSeries runs programs of AcquireSeries (event-driven, or sampled on
// one shared clock), Add, Record, clock ticks, Reset and Release on four
// series slots and, after every step, holds each live series to a plain
// []Point append oracle: every read answers as it does on the oracle,
// storage is empty, the clock's exact hint or a capacity class, and no two
// live series (nor a series and the clock) share backing storage.
//
// Op byte: the low two bits pick the slot, the next three the operation.
// The top three bits size a burst (1<<(op>>5)): of appends on an
// event-driven slot, of clock ticks, each recorded into every live sampled
// slot, on a sampled one. So a program climbs the capacity classes in a
// few bytes. A first byte below 128 gives the clock the fuzzed hint; from
// 128 on its column and its series grow from empty.
func FuzzSeries(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 2, 3, 24, 25, 26, 27})
	f.Add(uint8(15), []byte{4, 248, 248, 8, 12, 16, 20, 0, 248, 28, 9})
	f.Add(uint8(99), bytes.Repeat([]byte{0, 5, 248, 217, 9, 14, 23}, 20))
	f.Add(uint8(31), append(bytes.Repeat([]byte{0, 1, 2, 3, 248, 249, 250, 251}, 8), 8, 9, 10, 11))
	f.Add(uint8(40), []byte{4, 5, 153, 16, 17, 21, 122, 6, 249, 13, 18, 5, 185})
	f.Add(uint8(200), bytes.Repeat([]byte{5, 6, 187, 17, 186, 14, 21, 9, 7}, 12))
	f.Fuzz(func(t *testing.T, h uint8, prog []byte) {
		hint := 1 + int(h)%100
		if h >= 128 {
			hint = 0
		}
		clock := AcquireClock(hint)
		var (
			live    [4]*Series
			oracle  [4][]Point
			sampled [4]bool
			tick    = sim.Time(-1) // the clock's last instant
		)
		defer func() {
			for _, s := range live {
				if s != nil {
					s.Release()
				}
			}
			clock.Release()
		}()
		record := func(slot int, t sim.Time, v float64) {
			if sampled[slot] {
				live[slot].Record(v)
			} else {
				live[slot].Add(t, v)
			}
			if n := len(oracle[slot]); n > 0 && oracle[slot][n-1].T == t {
				oracle[slot][n-1].V = v
			} else {
				oracle[slot] = append(oracle[slot], Point{T: t, V: v})
			}
		}
		mustPanic := func(step int, what string, f func()) {
			defer func() {
				if recover() == nil {
					t.Fatalf("step %d: %s did not panic", step, what)
				}
			}()
			f()
		}
		for step, op := range prog {
			slot := int(op & 3)
			s := live[slot]
			last := sim.Time(-1)
			if n := len(oracle[slot]); n > 0 {
				last = oracle[slot][n-1].T
			}
			switch kind := op >> 2 & 7; {
			case kind < 2: // (re)acquire event-driven or sampled
				if s != nil {
					s.Release()
				}
				var c *Clock
				if kind == 1 {
					c = &clock
				}
				live[slot], oracle[slot], sampled[slot] = AcquireSeries("s", c), nil, kind == 1
			case s == nil:
			case kind == 2:
				s.Release()
				if s.size() != 0 || s.Points() != nil {
					t.Fatalf("step %d: released series holds %d points", step, s.size())
				}
				live[slot], oracle[slot] = nil, nil
			case kind == 3:
				s.points, s.vals = s.points[:0], s.vals[:0]
				oracle[slot] = oracle[slot][:0]
			case kind == 4 && !sampled[slot]: // same instant: replaces the last value
				record(slot, max(last, 0), float64(step))
			case kind == 4 && tick >= 0: // at the clock's last tick
				record(slot, tick, float64(step))
			case kind == 5 && !sampled[slot] && last > 0: // out of order: panics, changes nothing
				mustPanic(step, "an Add before the last sample", func() { s.Add(last-1, 1) })
			case kind == 5 && sampled[slot] && tick >= 0: // off the clock's tick
				mustPanic(step, "an Add off the clock's tick", func() { s.Add(tick-1+2*sim.Time(step%2), 1) })
			case kind < 6:
			case !sampled[slot]:
				for i := 0; i < 1<<(op>>5); i++ {
					last += 1 + sim.Time(i%3)
					record(slot, last, float64((step+i)%7))
				}
			default:
				for i := 0; i < 1<<(op>>5); i++ {
					next := max(tick, 0) + 1 + sim.Time(i%3)
					if dt := clock.Tick(next); dt != next.Sub(max(tick, 0)) {
						t.Fatalf("step %d: tick at %v stepped %v after %v", step, next, dt, tick)
					}
					tick = next
					for k := range live {
						if sampled[k] && live[k] != nil {
							record(k, tick, float64((step+i+k)%7))
						}
					}
				}
			}
			checkSeries(t, step, hint, &clock, live, oracle)
		}
	})
}

// checkSeries compares every live series with its oracle and checks that
// no two share storage.
func checkSeries(t *testing.T, step, hint int, clock *Clock, live [4]*Series, oracle [4][]Point) {
	t.Helper()
	type span struct{ lo, hi uintptr }
	var held []span
	hold := func(p unsafe.Pointer, bytes uintptr) {
		if bytes > 0 {
			held = append(held, span{uintptr(p), uintptr(p) + bytes})
		}
	}
	hold(unsafe.Pointer(unsafe.SliceData(clock.times)), uintptr(cap(clock.times))*unsafe.Sizeof(sim.Time(0)))
	for slot, s := range live {
		if s == nil {
			continue
		}
		ref := &Series{points: oracle[slot]}
		if !slices.Equal(s.Points(), ref.Points()) || s.size() != ref.size() || s.Last() != ref.Last() {
			t.Fatalf("step %d slot %d: points %v, oracle %v", step, slot, s.Points(), ref.Points())
		}
		end := sim.Time(3)
		if n := len(oracle[slot]); n > 0 {
			end += oracle[slot][n-1].T
		}
		for i := sim.Time(0); i <= 32; i++ {
			at := end*i/32 - 1
			if s.At(at) != ref.At(at) {
				t.Fatalf("step %d slot %d: At(%v) = %v, oracle %v", step, slot, at, s.At(at), ref.At(at))
			}
		}
		for _, w := range [][2]sim.Time{{0, end}, {end / 3, end / 2}, {end / 2, end}, {1, 1}, {end, 0}} {
			if s.Max(w[0], w[1]) != ref.Max(w[0], w[1]) || s.TimeAvg(w[0], w[1]) != ref.TimeAvg(w[0], w[1]) ||
				s.Percentile(w[0], w[1], 0.9) != ref.Percentile(w[0], w[1], 0.9) ||
				!slices.Equal(s.Resample(w[0], w[1], 7), ref.Resample(w[0], w[1], 7)) {
				t.Fatalf("step %d slot %d: window %v reads differ from the oracle's", step, slot, w)
			}
		}
		if s.clock != nil && cap(s.points) != 0 || s.clock == nil && cap(s.vals) != 0 {
			t.Fatalf("step %d slot %d: series holds both points and values", step, slot)
		}
		if c := cap(s.points); c != 0 && class(c) < 0 {
			t.Fatalf("step %d slot %d: points capacity %d is not a class", step, slot, c)
		}
		if c := cap(s.vals); c != 0 && c != hint && class(c) < 0 {
			t.Fatalf("step %d slot %d: values capacity %d is neither the hint %d nor a class", step, slot, c, hint)
		}
		hold(unsafe.Pointer(unsafe.SliceData(s.points)), uintptr(cap(s.points))*unsafe.Sizeof(Point{}))
		hold(unsafe.Pointer(unsafe.SliceData(s.vals)), uintptr(cap(s.vals))*unsafe.Sizeof(0.0))
	}
	for i := range held {
		for j := i + 1; j < len(held); j++ {
			if held[i].lo < held[j].hi && held[j].lo < held[i].hi {
				t.Fatalf("step %d: two live columns share backing storage", step)
			}
		}
	}
}
