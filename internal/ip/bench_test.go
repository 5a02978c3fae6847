package ip

import (
	"testing"

	"repro/internal/sim"
)

type releaseSink struct{ n int64 }

func (s *releaseSink) Receive(_ *sim.Engine, p *Packet) {
	s.n++
	p.Release()
}

// BenchmarkPortPacketPath measures the per-packet cost of a router port's
// enqueue → serialize → deliver pipeline, the packet path's counterpart of
// atmnet's BenchmarkLinkCellPath: on a zero-delay wire, which hands each
// packet straight to Dst, and on one whose packets ride the wire band for
// 10 µs. Packets come from the pool and are released at the sink, as end
// systems do.
func BenchmarkPortPacketPath(b *testing.B) {
	for _, bc := range []struct {
		name  string
		delay sim.Duration
	}{{"delay=0", 0}, {"delay=10us", 10 * sim.Microsecond}} {
		b.Run(bc.name, func(b *testing.B) {
			e := sim.NewEngine()
			dst := &releaseSink{}
			p := NewPort("p", 1e12, bc.delay, dst) // fast wire: no standing queue
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Receive(e, NewPacket(Packet{Flow: 1, Len: 512}))
				e.RunUntil(e.Now().Add(sim.Microsecond))
			}
			b.StopTimer()
			e.RunUntil(e.Now().Add(bc.delay + sim.Microsecond))
			if dst.n != int64(b.N) {
				b.Fatalf("delivered %d of %d", dst.n, b.N)
			}
		})
	}
}
