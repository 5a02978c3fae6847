// Command phantom-serve runs the phantom fleet as a service: a daemon
// exposing the versioned job API (POST /v1/jobs and friends) over a
// bounded queue of campaign jobs, each persisted into its own phantomdb
// campaign directory. phantom-suite and phantom-fuzz submit to it with
// -submit; curl works too — the wire shapes are documented in README.md.
//
// SIGTERM/SIGINT drains gracefully: submission stops (503), queued and
// running jobs are cancelled, in-flight runs land, every job's store is
// sealed, and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
)

func main() { os.Exit(run()) }

func run() int {
	c := cli.New("phantom-serve", cli.FlagWorkers|cli.FlagHTTP)
	addr := flag.String("addr", ":8080", "job API listen address")
	data := flag.String("data", "",
		"data root: each job writes a phantomdb campaign to <data>/<job-id> (empty: no persistence)")
	queue := flag.Int("queue", 64, "max queued jobs before submissions get 429")
	jobsN := flag.Int("jobs", 1, "jobs running concurrently (each is a fleet of -j workers)")
	c.Parse()
	defer c.Close()

	s := serve.New(serve.Config{
		Dir:          *data,
		QueueDepth:   *queue,
		JobWorkers:   *jobsN,
		FleetWorkers: c.Workers,
		Pprof:        c.Pprof,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phantom-serve: listen: %v\n", err)
		return 1
	}
	httpSrv := cli.NewHTTPServer(s.Handler())
	go httpSrv.Serve(ln)
	fmt.Fprintf(os.Stderr, "phantom-serve: job API on http://%s%s/jobs\n", ln.Addr(), "/v1")
	if *data != "" {
		fmt.Fprintf(os.Stderr, "phantom-serve: campaigns under %s\n", *data)
	}

	// -http mounts the fleet-wide live endpoints on a second, ops-only
	// listener (the API mux serves them too; this one can stay private).
	if c.HTTPAddr != "" {
		stop, err := cli.ServeLive(c.HTTPAddr, s.Live())
		if err != nil {
			fmt.Fprintf(os.Stderr, "phantom-serve: -http: %v\n", err)
			return 1
		}
		defer stop()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	<-sig
	fmt.Fprintln(os.Stderr, "phantom-serve: draining")

	// Drain cancels every job and blocks until in-flight runs land and all
	// stores seal; result streams then hit their terminal line on their
	// own, so the HTTP shutdown below finds only idle connections.
	s.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		httpSrv.Close()
	}
	fmt.Fprintln(os.Stderr, "phantom-serve: drained, stores sealed")
	return 0
}
