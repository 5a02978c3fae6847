package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// LiveState is the mutable fleet view behind the uniform -http endpoints:
// every fleet-running binary (phantom-suite, phantom-fuzz, phantom-serve)
// mounts the same /status and /metrics handlers over one of these. The
// fleet's Hook and OnResult callbacks run on worker goroutines, so every
// access locks; handlers read a consistent snapshot under the same lock.
type LiveState struct {
	mu       sync.Mutex
	start    time.Time
	total    int
	running  map[string]bool
	done     int
	failed   int
	canceled int
	counters map[string]uint64
	// extraProm appends extra Prometheus lines to /metrics (the daemon
	// adds its queue gauges). Called under the lock; keep it quick.
	extraProm func(w io.Writer)
	// pprof mounts net/http/pprof under /debug/pprof/ at Register time.
	// Off by default: profiling endpoints can stall the process (heap
	// dumps, 30s CPU profiles), so exposing them is an explicit -pprof
	// opt-in. Set before Register; flipping it later has no effect.
	pprof bool
}

// NewLiveState starts a view expecting total runs. Long-running daemons
// start at 0 and grow with AddTotal as jobs are accepted.
func NewLiveState(total int) *LiveState {
	return &LiveState{
		start:    time.Now(),
		total:    total,
		running:  make(map[string]bool),
		counters: make(map[string]uint64),
	}
}

// AddTotal grows the expected run count (daemon job submission).
func (s *LiveState) AddTotal(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total += n
}

// SetExtraProm installs an extra /metrics section writer.
func (s *LiveState) SetExtraProm(fn func(w io.Writer)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.extraProm = fn
}

// Hook is an exp.Hook tracking which runs are in flight.
func (s *LiveState) Hook(id string, phase exp.Phase, _ error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch phase {
	case exp.PhaseStart:
		s.running[id] = true
	case exp.PhaseDone, exp.PhaseFailed:
		delete(s.running, id)
	}
}

// OnResult is a runner.Fleet OnResult callback folding each landed run
// into the live totals.
func (s *LiveState) OnResult(_ int, r runner.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done++
	switch {
	case r.Canceled:
		s.canceled++
	case r.Err != nil:
		s.failed++
	}
	if r.Res != nil {
		telemetry.Merge(s.counters, r.Res.Counters)
	}
}

// snapshot returns a detached copy for a handler to render lock-free.
func (s *LiveState) snapshot() (running []string, done, failed, canceled, total int, counters map[string]uint64, elapsed time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id := range s.running {
		running = append(running, id)
	}
	sort.Strings(running)
	counters = make(map[string]uint64, len(s.counters))
	for k, v := range s.counters {
		counters[k] = v
	}
	return running, s.done, s.failed, s.canceled, s.total, counters, time.Since(s.start)
}

// ServeStatus renders live progress as JSON: run totals, in-flight run
// IDs, merged telemetry counters.
func (s *LiveState) ServeStatus(w http.ResponseWriter, _ *http.Request) {
	running, done, failed, canceled, total, counters, elapsed := s.snapshot()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		SchemaVersion int               `json:"schema_version"`
		Total         int               `json:"total"`
		Done          int               `json:"done"`
		Failed        int               `json:"failed"`
		Canceled      int               `json:"canceled,omitempty"`
		Running       []string          `json:"running"`
		ElapsedMS     float64           `json:"elapsed_ms"`
		Counters      map[string]uint64 `json:"counters,omitempty"`
	}{exp.SchemaVersion, total, done, failed, canceled, running,
		float64(elapsed) / float64(time.Millisecond), counters})
}

// ServeMetrics renders the same view as Prometheus text, plus the merged
// telemetry counters and any extra section the binary installed.
func (s *LiveState) ServeMetrics(w http.ResponseWriter, _ *http.Request) {
	running, done, failed, canceled, total, counters, _ := s.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE phantom_fleet_runs untyped\n")
	fmt.Fprintf(w, "phantom_fleet_runs{state=\"total\"} %d\n", total)
	fmt.Fprintf(w, "phantom_fleet_runs{state=\"done\"} %d\n", done)
	fmt.Fprintf(w, "phantom_fleet_runs{state=\"failed\"} %d\n", failed)
	fmt.Fprintf(w, "phantom_fleet_runs{state=\"canceled\"} %d\n", canceled)
	fmt.Fprintf(w, "phantom_fleet_runs{state=\"running\"} %d\n", len(running))
	telemetry.WriteProm(w, counters, nil)
	s.mu.Lock()
	extra := s.extraProm
	s.mu.Unlock()
	if extra != nil {
		extra(w)
	}
}

// SetPprof arms profiling endpoints for the next Register call.
func (s *LiveState) SetPprof(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pprof = on
}

// Register mounts the live endpoints on mux, plus /debug/pprof/ when
// SetPprof(true) was called first. The default mux is never involved, so
// importing net/http/pprof here leaks nothing into binaries that don't
// opt in.
func (s *LiveState) Register(mux *http.ServeMux) {
	mux.HandleFunc("/status", s.ServeStatus)
	mux.HandleFunc("/metrics", s.ServeMetrics)
	s.mu.Lock()
	on := s.pprof
	s.mu.Unlock()
	if !on {
		return
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// NewHTTPServer returns the http.Server every phantom listener runs: a
// client must deliver its request headers within ReadHeaderTimeout and an
// idle keep-alive connection is dropped after IdleTimeout, so stalled or
// abandoned connections cannot pile up on a long-lived daemon. There is no
// write timeout — NDJSON result streams legitimately stay open for as long
// as a job runs.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// ServeLive starts the -http listener with the live endpoints and returns
// a closer. CLIs that run one fleet and exit use this; phantom-serve
// mounts the same handlers on its API mux instead.
func ServeLive(addr string, state *LiveState) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	state.Register(mux)
	srv := NewHTTPServer(mux)
	go srv.Serve(ln)
	return func() { srv.Close() }, nil
}

// AttachLive wires the live view into a fleet: the run-phase hook (chained
// in front of any existing one) and the per-result fold.
func AttachLive(f *runner.Fleet, state *LiveState) {
	prev := f.Hook
	f.Hook = func(id string, phase exp.Phase, err error) {
		state.Hook(id, phase, err)
		if prev != nil {
			prev(id, phase, err)
		}
	}
	prevRes := f.OnResult
	f.OnResult = func(i int, r runner.Result) {
		state.OnResult(i, r)
		if prevRes != nil {
			prevRes(i, r)
		}
	}
}
