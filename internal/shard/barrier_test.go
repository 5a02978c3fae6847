package shard

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestSlotsFillCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n%cacheLine != 0 {
		t.Errorf("slot is %d bytes, want a multiple of %d", n, cacheLine)
	}
	if n := unsafe.Sizeof(paddedInt64{}); n != cacheLine {
		t.Errorf("paddedInt64 is %d bytes, want %d", n, cacheLine)
	}
}

// delivery is one line of a ping-pong net's delivery log.
type delivery struct {
	at      sim.Time
	conduit int
	vc      atm.VCID
}

// pingNet is n engines on a ring with a conduit in each direction between
// neighbours. Every cell bounces for ever between the two ends of the
// conduit pair it was injected on, and a shard does more local work per
// delivery the higher its index, so the shards reach the barrier far apart.
type pingNet struct {
	g *Group
	// logs[i] is what shard i's sinks received, in delivery order. Only
	// shard i's goroutine appends to it.
	logs [][]delivery
	// work[i] absorbs shard i's busy loop.
	work []uint64
}

const pingWindow = 10 * time.Nanosecond

func buildPingNet(n int, reg *telemetry.Registry) *pingNet {
	engines := make([]*sim.Engine, n)
	for i := range engines {
		engines[i] = sim.NewEngine()
	}
	p := &pingNet{g: NewGroup(engines, pingWindow, reg), logs: make([][]delivery, n), work: make([]uint64, n)}
	type end struct{ src, dst int }
	var ends []end
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		ends = append(ends, end{i, j}, end{j, i})
	}
	conduits := make([]*Conduit, len(ends))
	for c, ed := range ends {
		c, dst := c, ed.dst
		reverse := c ^ 1 // ends come in pairs: i→j at even c, j→i at c+1
		sink := atm.SinkFunc(func(e *sim.Engine, cell atm.Cell) {
			p.logs[dst] = append(p.logs[dst], delivery{e.Now(), c, cell.VC})
			sum := uint64(cell.VC)
			for k := 0; k < 200*dst; k++ {
				sum = sum*31 + uint64(k)
			}
			p.work[dst] += sum
			e.After(sim.Duration(1+int(cell.VC)%3)*time.Nanosecond, func(e *sim.Engine) {
				conduits[reverse].Receive(e, cell)
			})
		})
		conduits[c] = p.g.NewConduit(fmt.Sprintf("c%d", c), pingWindow+sim.Duration(c%3)*time.Nanosecond, engines[dst], sink)
	}
	for c, ed := range ends {
		c := c
		engines[ed.src].At(sim.Time(1+c%7)*sim.Time(time.Nanosecond), func(e *sim.Engine) {
			conduits[c].Receive(e, atm.Cell{VC: atm.VCID(c + 1)})
		})
	}
	return p
}

// advanceSerial is the reference the rendezvous is held to: the same
// epochs, every engine run in turn on the calling goroutine.
func advanceSerial(g *Group, d sim.Duration) {
	end := g.engines[0].Now().Add(d)
	for now := g.engines[0].Now(); now < end; now = g.engines[0].Now() {
		t := end
		if nt := now.Add(g.window); nt < end {
			t = nt
		}
		for _, e := range g.engines {
			e.RunUntil(t)
		}
		for _, cd := range g.conduits {
			cd.flush()
		}
	}
}

// sameLogs holds got to the deliveries of want up to time until.
func sameLogs(t *testing.T, what string, got, want [][]delivery, until sim.Time) {
	t.Helper()
	for i := range want {
		w := want[i]
		for len(w) > 0 && w[len(w)-1].at > until {
			w = w[:len(w)-1]
		}
		if len(got[i]) != len(w) {
			t.Fatalf("%s: shard %d logged %d deliveries, want %d", what, i, len(got[i]), len(w))
		}
		for k := range w {
			if got[i][k] != w[k] {
				t.Fatalf("%s: shard %d delivery %d = %+v, want %+v", what, i, k, got[i][k], w[k])
			}
		}
	}
}

// TestRendezvousStress runs 10⁴ tiny, lopsided epochs at every engine
// count and processor count — so that both the spinning and the parking
// side of the barrier run, under the race detector in CI — and holds the
// full delivery log to the serial reference. Many short Advance calls must
// give the log of one long one; that half covers the first tenth of the
// epochs, because at two or more processors every call pays for its worker
// goroutines to be picked up by another processor.
func TestRendezvousStress(t *testing.T) {
	const epochs, shortEpochs = 10000, 1000
	horizon := epochs * pingWindow
	for _, n := range []int{2, 3, 4, 8} {
		ref := buildPingNet(n, nil)
		advanceSerial(ref.g, horizon)
		if len(ref.logs[0]) < epochs/2 {
			t.Fatalf("n=%d: reference delivered only %d cells to shard 0", n, len(ref.logs[0]))
		}
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("n=%d/procs=%d", n, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

				reg := telemetry.New()
				long := buildPingNet(n, reg)
				long.g.Advance(horizon)
				sameLogs(t, "one Advance", long.logs, ref.logs, sim.Time(horizon))
				st := long.g.Stat()
				if st.Epochs != epochs || len(st.WaitNS) != n {
					t.Errorf("stats %+v: want %d epochs and %d WaitNS entries", st, epochs, n)
				}
				snap := reg.Snapshot()
				if min(procs, runtime.NumCPU()) < n && snap["shard.barrier_parks"] == 0 {
					t.Errorf("no waiter parked with %d processors for %d shards", procs, n)
				}
				if got := histCount(snap, "shard.barrier_wait_ns"); got != uint64(epochs*n) {
					t.Errorf("shard.barrier_wait_ns holds %d observations, want %d", got, epochs*n)
				}
				if got := histCount(snap, "shard.flush_ns"); got != epochs {
					t.Errorf("shard.flush_ns holds %d observations, want %d", got, epochs)
				}

				short := buildPingNet(n, nil)
				for k, left := 0, shortEpochs*pingWindow; left > 0; k++ {
					d := sim.Duration(1+k*7%40) * pingWindow
					if d > left {
						d = left
					}
					short.g.Advance(d)
					left -= d
				}
				sameLogs(t, "many Advances", short.logs, ref.logs, sim.Time(shortEpochs*pingWindow))
				if s := short.g.Stat(); s.Epochs != shortEpochs {
					t.Errorf("many Advances ran %d epochs, want %d", s.Epochs, shortEpochs)
				}
			})
		}
	}
}

// histCount sums a histogram's buckets out of a registry snapshot.
func histCount(snap map[string]uint64, name string) uint64 {
	var n uint64
	for i := 0; i < telemetry.HistBuckets; i++ {
		n += snap[telemetry.BucketName(name, i)]
	}
	return n
}

// TestAdvancePanic checks the panic rule: a handler that panics mid-window
// on any shard — a worker's or the caller's own — surfaces as a *Panic on
// the goroutine that called Advance, after every worker has been joined.
func TestAdvancePanic(t *testing.T) {
	for _, bad := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("shard=%d", bad), func(t *testing.T) {
			before := runtime.NumGoroutine()
			engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine(), sim.NewEngine()}
			g := NewGroup(engines, 10*sim.Microsecond, nil)
			// Shard 0 feeds shard 1, so the healthy shards are mid-protocol
			// — conduit traffic, several barriers behind them — when the
			// handler blows up inside the fourth window.
			cd := g.NewConduit("x", 10*sim.Microsecond, engines[1], atm.SinkFunc(func(*sim.Engine, atm.Cell) {}))
			engines[0].Every(3*sim.Microsecond, func(e *sim.Engine) { cd.Receive(e, atm.Cell{VC: 1}) })
			engines[bad].At(sim.Time(35*sim.Microsecond), func(*sim.Engine) { panic("boom") })

			func() {
				defer func() {
					p, ok := recover().(*Panic)
					if !ok || p.Shard != bad || p.Value != "boom" || len(p.Stack) == 0 {
						t.Errorf("Advance panicked with %+v, want *Panic{Shard: %d, Value: boom} with a stack", p, bad)
					}
				}()
				g.Advance(100 * sim.Microsecond)
				t.Error("Advance returned normally")
			}()

			// Advance joins its workers before it panics; a worker may still
			// be on its way out of the scheduler for an instant after that.
			for start := time.Now(); runtime.NumGoroutine() > before; runtime.Gosched() {
				if time.Since(start) > 5*time.Second {
					t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-before)
				}
			}
		})
	}
}
