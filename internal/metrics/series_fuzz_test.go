package metrics

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// FuzzSeries runs programs of AcquireSeries (hint 0 or the fuzzed hint),
// Add, Reset and Release on four series slots and, after every step,
// holds each live series to a plain []Point append oracle: every read
// answers as it does on the oracle, storage is empty, the exact hint or a
// capacity class, and no two live series share backing storage.
//
// Op byte: the low two bits pick the slot, the next three the operation.
// The top three bits size a burst of appends (1<<(op>>5) points), so a
// program climbs the capacity classes in a few bytes.
func FuzzSeries(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 2, 3, 24, 25, 26, 27})
	f.Add(uint8(15), []byte{4, 248, 248, 8, 12, 16, 20, 0, 248, 28, 9})
	f.Add(uint8(99), bytes.Repeat([]byte{0, 5, 248, 217, 9, 14, 23}, 20))
	f.Add(uint8(31), append(bytes.Repeat([]byte{0, 1, 2, 3, 248, 249, 250, 251}, 8), 8, 9, 10, 11))
	f.Fuzz(func(t *testing.T, h uint8, prog []byte) {
		hint := 1 + int(h)%100
		var (
			live   [4]*Series
			oracle [4][]Point
		)
		defer func() {
			for _, s := range live {
				if s != nil {
					s.Release()
				}
			}
		}()
		for step, op := range prog {
			slot := int(op & 3)
			s := live[slot]
			last := sim.Time(-1)
			if n := len(oracle[slot]); n > 0 {
				last = oracle[slot][n-1].T
			}
			add := func(t sim.Time, v float64) {
				s.Add(t, v)
				if n := len(oracle[slot]); n > 0 && oracle[slot][n-1].T == t {
					oracle[slot][n-1].V = v
				} else {
					oracle[slot] = append(oracle[slot], Point{T: t, V: v})
				}
			}
			switch kind := op >> 2 & 7; {
			case kind < 2: // (re)acquire with hint 0 or the fuzzed hint
				if s != nil {
					s.Release()
				}
				live[slot], oracle[slot] = AcquireSeries("s", int(kind)*hint), nil
			case s == nil:
			case kind == 2:
				s.Release()
				if len(s.points) != 0 || s.Points() != nil {
					t.Fatalf("step %d: released series holds %d points", step, len(s.points))
				}
				live[slot], oracle[slot] = nil, nil
			case kind == 3:
				s.points = s.points[:0]
				oracle[slot] = oracle[slot][:0]
			case kind == 4: // same instant: replaces the last value
				add(max(last, 0), float64(step))
			case kind == 5 && last > 0: // out of order: panics, changes nothing
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("step %d: Add at %v after %v did not panic", step, last-1, last)
						}
					}()
					s.Add(last-1, 1)
				}()
			default:
				for i := 0; i < 1<<(op>>5); i++ {
					last += 1 + sim.Time(i%3)
					add(last, float64((step+i)%7))
				}
			}
			checkSeries(t, step, hint, live, oracle)
		}
	})
}

// checkSeries compares every live series with its oracle and checks that
// no two share storage.
func checkSeries(t *testing.T, step, hint int, live [4]*Series, oracle [4][]Point) {
	t.Helper()
	type span struct{ lo, hi uintptr }
	var held []span
	for slot, s := range live {
		if s == nil {
			continue
		}
		ref := &Series{points: oracle[slot]}
		if !slices.Equal(s.Points(), ref.Points()) || len(s.points) != len(ref.points) || s.Last() != ref.Last() {
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
				!slices.Equal(s.Resample(w[0], w[1], 7), ref.Resample(w[0], w[1], 7)) {
				t.Fatalf("step %d slot %d: window %v reads differ from the oracle's", step, slot, w)
			}
		}
		c := cap(s.points)
		if c != 0 && c != hint && class(c) < 0 {
			t.Fatalf("step %d slot %d: capacity %d is neither the hint %d nor a class", step, slot, c, hint)
		}
		if c > 0 {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(s.points)))
			held = append(held, span{lo, lo + uintptr(c)*unsafe.Sizeof(Point{})})
		}
	}
	for i := range held {
		for j := i + 1; j < len(held); j++ {
			if held[i].lo < held[j].hi && held[j].lo < held[i].hi {
				t.Fatalf("step %d: two live series share backing storage", step)
			}
		}
	}
}
