// Package repro is a from-scratch Go reproduction of "Phantom: A Simple
// and Effective Flow Control Scheme" (Afek, Mansour, Ostfeld; SIGCOMM
// 1996): a constant-space rate-based flow-control algorithm for ATM
// switches and IP routers, evaluated here on a hand-rolled discrete-event
// simulator with TM-4.0 ABR end systems, TCP Reno/Vegas end systems, the
// EPRCA/APRC/CAPC/ERICA baselines, and a harness that regenerates every
// figure and table of the paper.
//
// Start with README.md for the tour, DESIGN.md for the system inventory
// and experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// `phantom-suite -quick -json` regenerates every experiment and reports
// its wall time and summary metrics.
package repro
