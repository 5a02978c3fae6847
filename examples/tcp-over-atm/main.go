// TCP over ATM: the "unifying interconnection" of the paper's abstract.
//
// Two TCP connections with very different round-trip times cross a
// 150 Mb/s ATM cloud. Each connection is carried on its own ABR virtual
// circuit: an ingress edge segments packets into cells (AAL5) and paces
// them at the VC's allowed cell rate, which the cloud's Phantom switches
// keep at the per-VC fair share. Fairness between the TCP flows therefore
// comes from the cloud's rate control, not from TCP's RTT-biased loss
// dynamics.
//
//	go run ./examples/tcp-over-atm
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/switchalg"
	"repro/internal/tcp"
)

func main() {
	big := tcp.DefaultSenderParams()
	big.RcvWnd = 2 * 1024 * 1024 // windows large enough to saturate the VC

	net, err := scenario.BuildTCPOverATM(scenario.InteropConfig{
		Alg: switchalg.NewPhantom(core.Config{}),
		Flows: []scenario.TCPFlowSpec{
			{Name: "metro (RTT≈3ms)", AccessDelay: 500 * sim.Microsecond, Params: &big},
			{Name: "transcontinental (RTT≈22ms)", AccessDelay: 10 * sim.Millisecond, Params: &big},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	const d = 10 * sim.Second
	net.Run(d)

	end := net.Engine.Now()
	tail := func(i int) float64 { return net.Goodput[i].TimeAvg(sim.Time(d/2), end) }

	tb := plot.NewTable("TCP flows across a Phantom-controlled ATM cloud",
		"flow", "goodput(Mb/s)", "VC rate (cells/s)", "edge drops", "in the cloud")
	for i := 0; i < 2; i++ {
		tb.AddRow(net.Config.Flows[i].Name, tail(i)/1e6,
			net.EdgeACR[i].Last(), net.Ingress[i].DroppedPackets(), net.Ingress[i].Held())
	}
	fmt.Println(tb.Render())

	g := []float64{tail(0), tail(1)}
	fmt.Printf("Jain fairness across a 7× RTT spread: %.3f\n", metrics.JainIndex(g))
	fmt.Printf("cloud trunk utilization: %.0f%%\n", 100*net.TrunkUtilization())

	c := plot.NewChart("per-VC allowed cell rate at the edges", "cells/s", 0, end)
	c.Add(net.EdgeACR[0], "metro")
	c.Add(net.EdgeACR[1], "transcont")
	fmt.Println(c.Render())
}
