package ring_test

import (
	"fmt"
	"testing"

	"repro/internal/atm"
	"repro/internal/atmnet"
	"repro/internal/ip"
	"repro/internal/sim"
)

// fifoDevice abstracts the two data-plane FIFOs built on ring.Ring — the
// ATM link queue and the IP port queue — so the wraparound and
// capacity-stabilization properties are pinned on the real components,
// not just on the ring in isolation (the bounded-drop property on the IP
// port, the one FIFO with a bound). Both devices are tuned to serialize
// one item per millisecond.
type fifoDevice interface {
	// push enqueues one item tagged with seq at the current engine time.
	push(e *sim.Engine, seq int)
	queueLen() int
	queueCap() int
	// delivered returns the seq tags received at the far end, in order.
	delivered() []int
}

type atmDevice struct {
	link *atmnet.Link
	got  []int
}

func newATMDevice() *atmDevice {
	d := &atmDevice{}
	// 1000 cells/s → 1 ms per cell; zero propagation delay.
	d.link = atmnet.NewLink("l", 1000, 0, atm.SinkFunc(func(_ *sim.Engine, c atm.Cell) {
		d.got = append(d.got, int(c.VC))
	}))
	return d
}

func (d *atmDevice) push(e *sim.Engine, seq int) { d.link.Receive(e, atm.Cell{VC: atm.VCID(seq)}) }
func (d *atmDevice) queueLen() int               { return d.link.QueueLen() }
func (d *atmDevice) queueCap() int               { return d.link.QueueCap() }
func (d *atmDevice) delivered() []int            { return d.got }

type ipDevice struct {
	port *ip.Port
	got  []int
}

func newIPDevice() *ipDevice {
	d := &ipDevice{}
	// 85-byte payload + 40-byte header = 1000 bits at 1 Mb/s → 1 ms/packet.
	d.port = ip.NewPort("p", 1e6, 0, d)
	return d
}

func (d *ipDevice) Receive(_ *sim.Engine, p *ip.Packet) { d.got = append(d.got, int(p.Seq)) }

func (d *ipDevice) push(e *sim.Engine, seq int) {
	d.port.Receive(e, &ip.Packet{Seq: int64(seq), Len: 85})
}
func (d *ipDevice) queueLen() int    { return d.port.QueueLen() }
func (d *ipDevice) queueCap() int    { return d.port.QueueCap() }
func (d *ipDevice) delivered() []int { return d.got }

// forDevices runs f once per FIFO implementation.
func forDevices(t *testing.T, f func(t *testing.T, e *sim.Engine, d fifoDevice)) {
	t.Helper()
	t.Run("atm-link", func(t *testing.T) { f(t, sim.NewEngine(), newATMDevice()) })
	t.Run("ip-port", func(t *testing.T) { f(t, sim.NewEngine(), newIPDevice()) })
}

// drain runs the engine long enough to transmit everything queued.
func drain(e *sim.Engine, d fifoDevice) {
	e.RunUntil(e.Now().Add(sim.Duration(d.queueLen()+4) * sim.Millisecond))
}

// TestFIFOWraparoundOrder pushes bursts smaller than the ring over many
// fill/drain cycles so the head index laps the backing array repeatedly,
// and checks FIFO order survives every boundary crossing.
func TestFIFOWraparoundOrder(t *testing.T) {
	forDevices(t, func(t *testing.T, e *sim.Engine, d fifoDevice) {
		seq := 0
		for cycle := 0; cycle < 20; cycle++ {
			for i := 0; i < 6; i++ {
				d.push(e, seq)
				seq++
			}
			drain(e, d)
			if d.queueLen() != 0 {
				t.Fatalf("cycle %d: backlog %d after drain", cycle, d.queueLen())
			}
		}
		got := d.delivered()
		if len(got) != seq {
			t.Fatalf("delivered %d of %d", len(got), seq)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("order broken at %d: got %d", i, v)
			}
		}
		// Peak occupancy 6 → one minimum-size allocation, never regrown.
		if d.queueCap() != 8 {
			t.Fatalf("cap = %d, want 8", d.queueCap())
		}
	})
}

// TestFIFODropAtBoundWhileWrapped advances the ring head past the middle
// of the backing array, then overfills a bounded queue so the occupied
// region straddles the array boundary at the moment drops happen. The IP
// port is the one bounded FIFO; an ATM link's queue is unbounded.
func TestFIFODropAtBoundWhileWrapped(t *testing.T) {
	t.Run("ip-port", func(t *testing.T) {
		e, d := sim.NewEngine(), newIPDevice()
		d.port.MaxQueue = 6
		// Advance head to index 4 of the 8-slot array.
		for i := 0; i < 4; i++ {
			d.push(e, i)
		}
		drain(e, d)
		// Overfill: 6 fit (slots 4..7 then wrapping to 0..1), 3 drop.
		for i := 0; i < 9; i++ {
			d.push(e, 100+i)
		}
		if d.queueLen() != 6 {
			t.Fatalf("queue = %d, want 6", d.queueLen())
		}
		if d.port.Dropped() != 3 {
			t.Fatalf("dropped = %d, want 3", d.port.Dropped())
		}
		if d.queueCap() != 8 {
			t.Fatalf("cap = %d, want 8 (bound must prevent growth)", d.queueCap())
		}
		drain(e, d)
		want := []int{0, 1, 2, 3, 100, 101, 102, 103, 104, 105}
		got := d.delivered()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	})
}

// TestFIFOQueueLenAcrossCrossings checks QueueLen at instants where the
// head has advanced mid-array and the tail has wrapped past index 0, i.e.
// while head > tail in array coordinates.
func TestFIFOQueueLenAcrossCrossings(t *testing.T) {
	forDevices(t, func(t *testing.T, e *sim.Engine, d fifoDevice) {
		for i := 0; i < 5; i++ {
			d.push(e, i)
		}
		if d.queueLen() != 5 {
			t.Fatalf("queue = %d, want 5", d.queueLen())
		}
		// 1 item/ms: by 2.5 ms exactly two have been transmitted.
		e.RunUntil(e.Now().Add(2500 * sim.Microsecond))
		if d.queueLen() != 3 {
			t.Fatalf("after 2 transmissions queue = %d, want 3", d.queueLen())
		}
		// Tail wraps: head is at 2, pushing 4 more puts the tail at index 1.
		for i := 0; i < 4; i++ {
			d.push(e, 10+i)
		}
		if d.queueLen() != 7 {
			t.Fatalf("wrapped queue = %d, want 7", d.queueLen())
		}
		drain(e, d)
		if d.queueLen() != 0 {
			t.Fatalf("queue = %d after drain, want 0", d.queueLen())
		}
		want := []int{0, 1, 2, 3, 4, 10, 11, 12, 13}
		got := d.delivered()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	})
}

// TestFIFOCapacityStabilizes pins the satellite property that replaced the
// append-and-shift slices: the backing array grows to the peak backlog on
// the first burst and is then reused verbatim by every later burst of the
// same size — no unbounded growth under repeated fill/drain.
func TestFIFOCapacityStabilizes(t *testing.T) {
	forDevices(t, func(t *testing.T, e *sim.Engine, d fifoDevice) {
		const peak = 40
		seq := 0
		var capAfterFirst int
		for cycle := 0; cycle < 10; cycle++ {
			for i := 0; i < peak; i++ {
				d.push(e, seq)
				seq++
			}
			drain(e, d)
			if cycle == 0 {
				capAfterFirst = d.queueCap()
				if capAfterFirst < peak {
					t.Fatalf("cap %d below peak %d", capAfterFirst, peak)
				}
				if capAfterFirst&(capAfterFirst-1) != 0 {
					t.Fatalf("cap %d not a power of two", capAfterFirst)
				}
			} else if d.queueCap() != capAfterFirst {
				t.Fatalf("cycle %d: cap grew %d → %d despite identical peak",
					cycle, capAfterFirst, d.queueCap())
			}
		}
		if len(d.delivered()) != seq {
			t.Fatalf("delivered %d of %d", len(d.delivered()), seq)
		}
	})
}
