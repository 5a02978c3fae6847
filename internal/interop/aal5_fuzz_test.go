package interop

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/ip"
	"repro/internal/sim"
)

// lossyWire carries an ingress edge's cells to its egress edge after a
// fixed delay, long enough for several datagrams to be in flight, and loses
// cell k when bit k of loss is set (no loss past its end). It attributes
// every data cell to its datagram, which the ingress segments in order, so
// the oracle knows what each datagram lost.
type lossyWire struct {
	to   *EgressEdge
	loss []byte
	k    int // cells seen

	dgram    int           // datagram the next data cell belongs to
	arrived  []int         // per datagram: data cells that arrived
	eopGone  []bool        // per datagram: its end-of-packet cell was lost
	eopSent  int           // datagrams whose end-of-packet cell left the ingress
	onArrive func(eop int) // the datagram whose end-of-packet cell arrived, or -1
}

func (w *lossyWire) Receive(e *sim.Engine, c atm.Cell) {
	lost := w.k/8 < len(w.loss) && w.loss[w.k/8]&(1<<(w.k%8)) != 0
	w.k++
	eop := -1
	if c.Kind == atm.Data {
		if !lost {
			w.arrived[w.dgram]++
		}
		if c.EndOfPacket {
			eop = w.dgram
			w.eopGone[w.dgram] = lost
			w.dgram++
			w.eopSent++
		}
	}
	if !lost {
		e.AfterFunc(2*sim.Millisecond, call, sim.Payload{Obj: func(e *sim.Engine) {
			w.to.Receive(e, c)
			w.onArrive(eop)
		}})
	}
}

// FuzzAAL5 segments datagrams of fuzzed sizes at an ingress edge, loses
// fuzzed cells of any kind (data, end-of-packet, forward RM) on the way to
// the egress edge, and holds reassembly to the AAL5 length check: a
// datagram is delivered, in order, exactly when its end-of-packet cell
// arrives and the data cells that arrived since the previous arriving
// end-of-packet cell are as many as it was segmented into. (A datagram
// whose cells all arrived fails that check when the datagram before it lost
// only some cells and its end-of-packet cell, whose survivors count toward
// it.) Every datagram not delivered is released exactly once: when its own
// end-of-packet cell arrives, or the first later one does. The edge pair's
// FIFO holds exactly the datagrams sent since the last arriving
// end-of-packet cell.
func FuzzAAL5(f *testing.F) {
	f.Add([]byte{85, 0, 255, 7, 30}, []byte{})
	f.Add([]byte{85, 85, 85, 85}, []byte{0, 0, 0x80, 0, 0, 0, 0x08})     // one mid cell lost, one EOP lost
	f.Add([]byte{0, 0, 0, 0, 0, 0}, []byte{0x15})                        // one-cell datagrams, every other one lost
	f.Add([]byte{200, 10, 200, 10, 200}, []byte{0, 0, 0, 0, 0xff, 0xff}) // a burst swallows an RM cell
	f.Fuzz(func(t *testing.T, sizes, loss []byte) {
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		e := sim.NewEngine()
		dst := &pktCapture{}
		egress := NewEgressEdge(1, &cellCapture{}, dst)
		wire := &lossyWire{to: egress, loss: loss,
			arrived: make([]int, len(sizes)), eopGone: make([]bool, len(sizes))}
		in := NewIngressEdge(1, atm.DefaultSourceParams(), wire, egress)
		in.MaxQueueBytes = 1 << 20
		if err := in.Start(e); err != nil {
			t.Fatal(err)
		}

		pkts := make([]*ip.Packet, len(sizes))
		cells := make([]int, len(sizes))
		for i, b := range sizes {
			pkts[i] = &ip.Packet{Flow: 1, Seq: int64(i), Len: int(b) * 6}
			cells[i] = cellsFor(pkts[i])
		}
		// A released packet reads Flow -1; the oracle marks it -2 as soon
		// as it sees it, so a second Release shows as -1 again.
		released := make([]bool, len(sizes))
		taken := 0     // datagrams resolved: up to and including the last arriving EOP
		delivered := 0 // datagrams the oracle wants delivered
		wire.onArrive = func(j int) {
			if j >= 0 {
				n := 0
				for i := taken; i <= j; i++ {
					n += wire.arrived[i]
				}
				if n == cells[j] {
					delivered++
					if len(dst.pkts) != delivered || dst.pkts[delivered-1] != pkts[j] {
						t.Fatalf("datagram %d passes the length check but was not delivered", j)
					}
				}
				taken = j + 1
			}
			if len(dst.pkts) != delivered {
				t.Fatalf("%d delivered, oracle wants %d", len(dst.pkts), delivered)
			}
			for i, p := range pkts {
				switch p.Flow {
				case -1:
					if released[i] {
						t.Fatalf("datagram %d released twice", i)
					}
					if isDelivered(dst.pkts, p) {
						t.Fatalf("datagram %d released after its delivery", i)
					}
					if i >= taken {
						t.Fatalf("datagram %d released before an end-of-packet cell at or after it arrived", i)
					}
					released[i] = true
					p.Flow = -2
				case -2:
				default:
					if i < taken && !isDelivered(dst.pkts, p) {
						t.Fatalf("datagram %d neither delivered nor released once resolved", i)
					}
				}
			}
			if held := in.Held(); held != wire.eopSent-taken {
				t.Fatalf("%d held, want the %d sent since the last arriving end-of-packet cell", held, wire.eopSent-taken)
			}
		}
		for _, p := range pkts {
			in.Receive(e, p)
		}
		e.RunUntil(sim.Time(sim.Second))
		if wire.dgram != len(sizes) {
			t.Fatalf("%d of %d datagrams segmented", wire.dgram, len(sizes))
		}
		for i := 1; i < len(dst.pkts); i++ {
			if dst.pkts[i].Seq <= dst.pkts[i-1].Seq {
				t.Fatalf("delivered out of order: %d after %d", dst.pkts[i].Seq, dst.pkts[i-1].Seq)
			}
		}
		for i := taken; i < len(pkts); i++ {
			if !wire.eopGone[i] || released[i] {
				t.Fatalf("datagram %d after the last arriving end-of-packet cell: EOP lost %v, released %v", i, wire.eopGone[i], released[i])
			}
		}
	})
}

func isDelivered(got []*ip.Packet, p *ip.Packet) bool {
	for _, q := range got {
		if q == p {
			return true
		}
	}
	return false
}

// call runs the func(*sim.Engine) in p.Obj: a test's one-off event.
func call(e *sim.Engine, p sim.Payload) { p.Obj.(func(*sim.Engine))(e) }
