package atmnet

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/switchalg"
)

type nullSink struct{ n int64 }

func (s *nullSink) Receive(*sim.Engine, atm.Cell) { s.n++ }

// BenchmarkLinkCellPath measures the per-cell cost of the enqueue →
// serialize → deliver pipeline, the innermost loop of every ATM run: on a
// zero-delay line, which hands each cell straight to Dst (a shard conduit's
// spelling), and on a line whose cells ride the wire band for 10 µs.
func BenchmarkLinkCellPath(b *testing.B) {
	for _, bc := range []struct {
		name  string
		delay sim.Duration
	}{{"delay=0", 0}, {"delay=10us", 10 * sim.Microsecond}} {
		b.Run(bc.name, func(b *testing.B) {
			e := sim.NewEngine()
			dst := &nullSink{}
			l := NewLink("l", 1e9, bc.delay, dst) // fast line: no standing queue
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Receive(e, atm.Cell{VC: 1})
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

// BenchmarkSwitchForwarding measures routed forwarding through a Phantom
// port, including the algorithm hooks.
func BenchmarkSwitchForwarding(b *testing.B) {
	e := sim.NewEngine()
	dst := &nullSink{}
	sw := NewSwitch("sw")
	fp := NewLink("f", 1e9, 0, dst)
	fp.Attach(e, switchalg.NewPhantom(core.Config{})())
	bp := NewLink("b", 1e9, 0, &nullSink{})
	sw.Route(1, fp, bp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sw.Receive(e, atm.Cell{VC: 1, Kind: atm.Data})
		e.RunUntil(e.Now().Add(sim.Microsecond))
	}
}

// BenchmarkSimulatedSecond reports how much wall time one simulated second
// of the Fig. 3 workload costs end to end (two greedy 150 Mb/s sessions:
// ≈1.4 M events).
func BenchmarkSimulatedSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		dst := &nullSink{}
		sw := NewSwitch("sw")
		fp := NewLink("f", atm.CPS(150e6), 0, dst)
		fp.Attach(e, switchalg.NewPhantom(core.Config{})())
		sw.Route(1, fp, nil)
		e.Every(sim.Duration(2827), call, sim.Payload{Obj: func(en *sim.Engine) { // ≈ cell time at 150 Mb/s
			sw.Receive(en, atm.Cell{VC: 1, Kind: atm.Data})
		}})
		e.RunUntil(sim.Time(sim.Second))
	}
}
