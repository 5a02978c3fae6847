package ring

import "testing"

func TestFIFOOrder(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 100; i++ {
		r.Push(i)
	}
	for i := 0; i < 100; i++ {
		if got := r.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len after drain = %d", r.Len())
	}
}

// TestWraparound drives the head across the end of the backing array many
// times with the ring partially full, the regime every transmit queue
// lives in.
func TestWraparound(t *testing.T) {
	var r Ring[int]
	next, expect := 0, 0
	for i := 0; i < 5; i++ {
		r.Push(next)
		next++
	}
	for step := 0; step < 1000; step++ {
		r.Push(next)
		next++
		if got := r.Pop(); got != expect {
			t.Fatalf("step %d: Pop = %d, want %d", step, got, expect)
		}
		expect++
		if r.Len() != 5 {
			t.Fatalf("step %d: Len = %d, want 5", step, r.Len())
		}
	}
}

// TestGrowthRelinearizes fills past several doublings while the head is
// mid-array, so grow must stitch the two segments back together in order.
func TestGrowthRelinearizes(t *testing.T) {
	var r Ring[int]
	next, expect := 0, 0
	// Occupy and advance so head is non-zero within the first allocation.
	for i := 0; i < minCap; i++ {
		r.Push(next)
		next++
	}
	for i := 0; i < minCap/2; i++ {
		if got := r.Pop(); got != expect {
			t.Fatalf("warmup Pop = %d, want %d", got, expect)
		}
		expect++
	}
	for i := 0; i < 200; i++ { // forces several grow() calls wrapped
		r.Push(next)
		next++
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != expect {
			t.Fatalf("Pop = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d elements, pushed %d", expect, next)
	}
}

// TestCapacityStabilizes is the unbounded-growth regression test: repeated
// fill/drain cycles at the same peak occupancy must not grow the backing
// array beyond the capacity the first cycle established.
func TestCapacityStabilizes(t *testing.T) {
	var r Ring[int]
	const peak = 100
	fillDrain := func() {
		for i := 0; i < peak; i++ {
			r.Push(i)
		}
		for i := 0; i < peak; i++ {
			r.Pop()
		}
	}
	fillDrain()
	stable := r.Cap()
	for cycle := 0; cycle < 50; cycle++ {
		fillDrain()
		if r.Cap() != stable {
			t.Fatalf("cycle %d: Cap = %d, want stable %d", cycle, r.Cap(), stable)
		}
	}
	if stable >= 4*peak {
		t.Fatalf("stable capacity %d is more than 4x the peak %d", stable, peak)
	}
}

// TestPopZeroesSlot checks dequeued pointer slots are cleared so the ring
// cannot pin dead objects.
// TestPushSlot: a slot filled in place is an element like one pushed by
// value — same order across growth and wraparound — and is handed out zeroed.
func TestPushSlot(t *testing.T) {
	var r Ring[[2]int]
	next, expect := 0, 0
	for step := 0; step < 1000; step++ {
		for k := 0; k < 1+step%3; k++ {
			if step%2 == 0 {
				r.Push([2]int{next, -next})
			} else {
				x := r.PushSlot()
				if *x != ([2]int{}) {
					t.Fatalf("step %d: PushSlot handed out %v, want a zero slot", step, *x)
				}
				x[0], x[1] = next, -next
			}
			next++
		}
		for r.Len() > 5 {
			if got := r.Pop(); got != ([2]int{expect, -expect}) {
				t.Fatalf("step %d: Pop = %v, want %d", step, got, expect)
			}
			expect++
		}
	}
}

func TestPopZeroesSlot(t *testing.T) {
	var r Ring[*int]
	v := new(int)
	r.Push(v)
	r.Pop()
	if r.buf[0] != nil {
		t.Fatal("slot not zeroed after Pop")
	}
}

func TestPeekAndAt(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 10; i++ {
		r.Push(i)
	}
	for i := 0; i < 3; i++ {
		r.Pop()
	}
	if got := *r.Peek(); got != 3 {
		t.Fatalf("Peek = %d, want 3", got)
	}
	for i := 0; i < r.Len(); i++ {
		if got := r.buf[(r.head+i)&(len(r.buf)-1)]; got != i+3 {
			t.Fatalf("element %d from the head = %d, want %d", i, got, i+3)
		}
	}
}

func TestEmptyOpsPanic(t *testing.T) {
	for name, op := range map[string]func(*Ring[int]){
		"Pop":  func(r *Ring[int]) { r.Pop() },
		"Peek": func(r *Ring[int]) { r.Peek() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on empty ring did not panic", name)
				}
			}()
			var r Ring[int]
			op(&r)
		}()
	}
}
