package scenario

import (
	"fmt"
	"testing"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/workload"
)

// Conservation invariants: in a lossless network with unbounded queues,
// every cell a source emits is eventually either delivered as data or
// turned around as an RM cell, and every turned-around RM cell reaches the
// source. These hold for every algorithm, so the test is table-driven.

func algorithmTable() []struct {
	name string
	f    switchalg.Factory
} {
	return []struct {
		name string
		f    switchalg.Factory
	}{
		{"Phantom", switchalg.NewPhantom(core.Config{})},
		{"Phantom-CI", switchalg.NewPhantomCI(core.Config{})},
		{"EPRCA", switchalg.NewEPRCA()},
		{"APRC", switchalg.NewAPRC()},
		{"CAPC", switchalg.NewCAPC()},
		{"ExactMaxMin", switchalg.NewExactMaxMin()},
		{"ERICA", switchalg.NewERICA()},
		{"none", nil},
	}
}

func TestCellConservationAcrossAlgorithms(t *testing.T) {
	for _, alg := range algorithmTable() {
		alg := alg
		t.Run(alg.name, func(t *testing.T) {
			const active = 150 * sim.Millisecond
			n, err := BuildATM(ATMConfig{
				Switches: 3,
				Alg:      alg.f,
				Sessions: []ATMSessionSpec{
					// Sessions stop at `active` so the network can drain.
					{Name: "a", Entry: 0, Exit: 2, Pattern: workload.Window{Start: 0, Stop: sim.Time(active)}},
					{Name: "b", Entry: 0, Exit: 1, Pattern: workload.Window{Start: 0, Stop: sim.Time(active)}},
					{Name: "c", Entry: 1, Exit: 2, Pattern: workload.Window{Start: 0, Stop: sim.Time(active)}},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Run well past the stop so queues and RM loops drain fully.
			n.Run(sim.Duration(active) + 200*sim.Millisecond)

			for i, src := range n.Sources {
				sent := src.CellsSent()
				data := n.Dests[i].DataCells()
				rm := n.Dests[i].RMCells()
				if sent == 0 {
					t.Fatalf("session %d sent nothing", i)
				}
				if data+rm != sent {
					t.Errorf("session %d: sent %d ≠ delivered %d data + %d RM (lost %d)",
						i, sent, data, rm, sent-data-rm)
				}
				// Every turned-around RM must come back to the source.
				if back := src.BackwardRMsSeen(); back != rm {
					t.Errorf("session %d: %d RM turned around but %d returned", i, rm, back)
				}
			}
		})
	}
}

func TestDeterminismAcrossAlgorithms(t *testing.T) {
	for _, alg := range algorithmTable() {
		alg := alg
		t.Run(alg.name, func(t *testing.T) {
			runOnce := func() string {
				n, err := BuildATM(ATMConfig{
					Switches: 2,
					Alg:      alg.f,
					Sessions: []ATMSessionSpec{
						{Name: "a", Entry: 0, Exit: 1, Pattern: workload.Greedy{}},
						{Name: "b", Entry: 0, Exit: 1, Pattern: workload.PeriodicOnOff{
							Start: sim.Time(20 * sim.Millisecond),
							On:    30 * sim.Millisecond,
							Off:   20 * sim.Millisecond,
						}},
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				n.Run(120 * sim.Millisecond)
				return fmt.Sprintf("%d %d %v %v %d",
					n.Dests[0].DataCells(), n.Dests[1].DataCells(),
					n.ACR[0].Last(), n.ACR[1].Last(), n.Engine.Fired())
			}
			if a, b := runOnce(), runOnce(); a != b {
				t.Fatalf("nondeterministic: %q vs %q", a, b)
			}
		})
	}
}

// In-order delivery per VC is a switch invariant: the ATM network never
// reorders cells of one VC (FIFO queues, single path), and this one loses
// none. So per VC, what the destination receives — each cell's kind, and a
// forward RM cell's CCR — is a prefix of what its source sent. The
// destination counts data cells and turns each forward RM cell around as
// it arrives, so the data cells it received before an RM cell are its
// count's growth since the previous turnaround.
func TestPerVCInOrderDelivery(t *testing.T) {
	n, err := BuildATM(ATMConfig{
		Switches: 3,
		Alg:      switchalg.NewPhantom(core.Config{}),
		Sessions: []ATMSessionSpec{
			{Name: "x", Entry: 0, Exit: 2, Pattern: workload.Greedy{}},
			{Name: "y", Entry: 0, Exit: 2, Pattern: workload.Greedy{}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	type mark struct {
		kind atm.CellKind
		ccr  float64
	}
	sent := make([][]mark, len(n.Sources))
	got := make([][]mark, len(n.Dests))
	counted := make([]int64, len(n.Dests))
	// data records the data cells destination i received since the last
	// call.
	data := func(i int) {
		for ; counted[i] < n.Dests[i].DataCells(); counted[i]++ {
			got[i] = append(got[i], mark{atm.Data, 0})
		}
	}
	for i := range n.Sources {
		i := i
		src, dst := n.Sources[i], n.Dests[i]
		out, back := src.Out, dst.Back
		src.Out = atm.SinkFunc(func(e *sim.Engine, c atm.Cell) {
			sent[i] = append(sent[i], mark{c.Kind, c.CCR})
			out.Receive(e, c)
		})
		dst.Back = atm.SinkFunc(func(e *sim.Engine, c atm.Cell) {
			data(i)
			got[i] = append(got[i], mark{atm.ForwardRM, c.CCR})
			back.Receive(e, c)
		})
	}
	n.Run(100 * sim.Millisecond)
	for i := range got {
		data(i)
		rm := 0
		for _, m := range got[i] {
			if m.kind == atm.ForwardRM {
				rm++
			}
		}
		if len(got[i]) == 0 || rm == 0 {
			t.Fatalf("session %d: %d cells, %d forward RM cells delivered", i, len(got[i]), rm)
		}
		if len(got[i]) > len(sent[i]) {
			t.Fatalf("session %d: %d cells delivered, %d sent", i, len(got[i]), len(sent[i]))
		}
		for k, m := range got[i] {
			if m != sent[i][k] {
				t.Fatalf("session %d: cell %d delivered as %v, sent as %v", i, k, m, sent[i][k])
			}
		}
	}
}
