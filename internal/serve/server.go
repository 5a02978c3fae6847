// Package serve is the phantom control plane: a long-running daemon that
// wraps runner.Fleet behind the versioned job API (package api). Clients
// POST a JobSpec, get back a job ID, and poll or stream the job's life;
// the daemon runs jobs from a bounded queue on persistent workers, writes
// each job's runs into its own campaign store directory, and drains
// gracefully — sealing every in-flight store — on shutdown.
//
// Determinism carries over wholesale: a job's results and its store bytes
// are identical to a direct runner.Fleet run of the same expansion,
// whatever the daemon's queue depth or worker counts.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/api"
	"repro/internal/cli"
	"repro/internal/runner"
	"repro/internal/store"
)

// Config sizes a Server.
type Config struct {
	// Dir is the data root; each job gets the campaign directory Dir/<id>.
	// Empty runs storeless (results live only in memory and the stream).
	Dir string
	// QueueDepth bounds the submitted-but-not-started backlog (default 64).
	// Submissions beyond it are rejected with 429, not blocked.
	QueueDepth int
	// JobWorkers is how many jobs run concurrently (default 1: jobs are
	// themselves fleets; one at a time keeps run-level parallelism honest).
	JobWorkers int
	// FleetWorkers is the per-job fleet size when the spec doesn't pick one
	// (0: GOMAXPROCS).
	FleetWorkers int
	// Pprof mounts net/http/pprof on the daemon's HTTP surface.
	Pprof bool
}

// Server owns the job table, the queue, and the worker pool. Create with
// New, mount Handler on a listener (or httptest), and Drain on shutdown.
type Server struct {
	cfg  Config
	live *cli.LiveState
	mux  *http.ServeMux
	// index memoizes per-file block indexes across analytics queries, so
	// re-opening a running job's campaign on every query costs a ReadDir
	// plus one Stat per already-seen file, and the job's one strict open
	// once it is terminal re-reads none of them.
	index *store.Cache

	mu       sync.Mutex
	jobs     map[string]*job
	order    []*job
	nextID   int
	draining bool
	queue    chan *job
	queries  queryStats
	wg       sync.WaitGroup
}

// New builds a Server and starts its job workers.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 1
	}
	s := &Server{
		cfg:   cfg,
		live:  cli.NewLiveState(0),
		index: store.NewCache(),
		jobs:  make(map[string]*job),
		queue: make(chan *job, cfg.QueueDepth),
	}
	s.adoptCampaigns()
	s.live.SetExtraProm(s.promExtra)
	s.live.SetPprof(cfg.Pprof)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST "+api.PathPrefix+"/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET "+api.PathPrefix+"/jobs", s.handleList)
	s.mux.HandleFunc("GET "+api.PathPrefix+"/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE "+api.PathPrefix+"/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET "+api.PathPrefix+"/jobs/{id}/results", s.handleResults)
	s.mux.HandleFunc("GET "+api.PathPrefix+"/jobs/{id}/summary", s.handleQuerySummary)
	s.mux.HandleFunc("GET "+api.PathPrefix+"/jobs/{id}/series", s.handleQuerySeries)
	s.mux.HandleFunc("GET "+api.PathPrefix+"/jobs/{id}/counters", s.handleQueryCounters)
	s.mux.HandleFunc("GET "+api.PathPrefix+"/jobs/{id}/trace", s.handleQueryTrace)
	s.mux.HandleFunc("GET "+api.PathPrefix+"/query", s.handleCrossQuery)
	s.live.Register(s.mux)
	for i := 0; i < cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler is the daemon's full HTTP surface: the /v1 job API plus the
// fleet-wide /status and /metrics shared with the other fleet binaries.
func (s *Server) Handler() http.Handler { return s.mux }

// Live exposes the fleet-wide live view (the cmd wires it to -http).
func (s *Server) Live() *cli.LiveState { return s.live }

// Drain stops accepting jobs, cancels everything queued or running, waits
// for the workers to land their in-flight runs, and returns once every
// job's store is sealed. Idempotent; safe under concurrent submits.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	// Submissions hold the lock while enqueueing, so once draining is set
	// no send can race this close.
	close(s.queue)
	jobs := append([]*job(nil), s.order...)
	s.mu.Unlock()
	for _, j := range jobs {
		j.requestCancel()
	}
	s.wg.Wait()
}

// worker runs queued jobs until the queue closes at drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job's expansion on a fresh fleet, landing each run
// into the job as it completes and sealing the job's store at the end.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !j.start(cancel) {
		return // cancelled while queued
	}
	workers := j.spec.Workers
	if workers == 0 {
		workers = s.cfg.FleetWorkers
	}
	fleet := &runner.Fleet{
		Workers:   workers,
		Telemetry: j.spec.Telemetry,
		OnResult:  func(i int, r runner.Result) { j.land(i, j.exp.Convert(i, r)) },
	}
	cli.AttachLive(fleet, s.live)
	var infra string
	if s.cfg.Dir != "" {
		dir := filepath.Join(s.cfg.Dir, j.id)
		sw, err := store.Create(dir, store.Options{})
		if err != nil {
			infra = fmt.Sprintf("store: %v", err)
		} else {
			fleet.Store = sw
			j.setStore(dir)
		}
	}
	var stats runner.Stats
	if infra == "" {
		_, stats = fleet.RunContext(ctx, j.exp.Jobs)
		if fleet.Store != nil {
			// Canceled runs committed empty segments, so Close seals a
			// complete, readable campaign even mid-cancel.
			if err := fleet.Store.Close(); err != nil {
				infra = fmt.Sprintf("store: %v", err)
			}
		}
	}
	j.finish(stats, infra)
}

// Submit accepts a spec programmatically (the HTTP handler wraps this).
// It expands the spec — rejecting invalid ones with a real message — and
// enqueues the job.
func (s *Server) Submit(spec api.JobSpec) (*job, error) {
	expn, err := api.Expand(spec, api.Env{Trace: s.cfg.Dir != ""})
	if err != nil {
		return nil, err
	}
	return s.enqueue(spec, expn)
}

// enqueue registers an expanded spec as a new job and queues it.
func (s *Server) enqueue(spec api.JobSpec, expn *api.Expansion) (*job, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	s.nextID++
	id := fmt.Sprintf("job-%05d", s.nextID)
	j := newJob(id, spec, expn)
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		return nil, errQueueFull
	}
	s.jobs[id] = j
	s.order = append(s.order, j)
	s.mu.Unlock()
	s.live.AddTotal(len(expn.Jobs))
	return j, nil
}

var (
	errDraining  = fmt.Errorf("serve: draining, not accepting jobs")
	errQueueFull = fmt.Errorf("serve: job queue full")
)

// lookup finds a job by path ID.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// adoptCampaigns lists every subdirectory of the data root that already
// holds phantomdb files and registers each as a terminal, adopted job —
// campaigns from previous daemon lives (or dropped in from elsewhere) stay
// queryable through the analytics endpoints after a restart. Each is
// opened strictly here: one that does not open (an unsealed or damaged
// file) is registered failed, with the open error as its reason. Adopted
// IDs shaped like job-NNNNN advance the ID counter so new submissions
// never collide with an adopted store directory.
func (s *Server) adoptCampaigns() {
	if s.cfg.Dir == "" {
		return
	}
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return // a missing root materializes on the first submission
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.cfg.Dir, e.Name())
		if pdbs, _ := filepath.Glob(filepath.Join(dir, "*.pdb")); len(pdbs) == 0 {
			continue
		}
		j := adoptedJob(e.Name(), dir)
		if _, err := s.openSealed(j, dir); err != nil {
			j.state, j.errMsg = api.JobFailed, err.Error()
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		var n int
		if _, err := fmt.Sscanf(e.Name(), "job-%05d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
}

// promExtra appends the daemon's /metrics sections: queue gauges plus the
// analytics counters.
func (s *Server) promExtra(w io.Writer) {
	s.promJobs(w)
	s.promQueries(w)
}

// promJobs appends the daemon's queue gauges to /metrics.
func (s *Server) promJobs(w io.Writer) {
	counts := map[api.JobState]int{}
	s.mu.Lock()
	for _, j := range s.order {
		counts[j.status().State]++
	}
	s.mu.Unlock()
	fmt.Fprintf(w, "# TYPE phantom_serve_jobs untyped\n")
	for _, st := range []api.JobState{api.JobQueued, api.JobRunning, api.JobDone, api.JobFailed, api.JobCanceled} {
		fmt.Fprintf(w, "phantom_serve_jobs{state=%q} %d\n", st, counts[st])
	}
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(api.MarshalError(msg))
	w.Write([]byte("\n"))
}

// decodeSpec reads a body that must be exactly one JobSpec: a field the
// spec does not have and anything after the spec's closing brace are
// errors naming the offending token, not silently dropped.
func decodeSpec(body io.Reader) (api.JobSpec, error) {
	var spec api.JobSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	var extra json.RawMessage
	switch err := dec.Decode(&extra); err {
	case io.EOF:
		return spec, nil
	case nil:
	default: // not a JSON value: name the bytes the decoder stopped at
		extra, _ = io.ReadAll(dec.Buffered()) // an in-memory reader: cannot fail
	}
	return spec, fmt.Errorf("trailing data after the spec: %.64s", bytes.TrimSpace(extra))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad job spec: %v", err))
		return
	}
	j, err := s.Submit(spec)
	switch {
	case err == errDraining:
		writeErr(w, http.StatusServiceUnavailable, err.Error())
	case err == errQueueFull:
		writeErr(w, http.StatusTooManyRequests, err.Error())
	case err != nil:
		writeErr(w, http.StatusBadRequest, err.Error())
	default:
		writeJSON(w, http.StatusAccepted, j.status())
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := append([]*job(nil), s.order...)
	s.mu.Unlock()
	l := api.JobList{SchemaVersion: api.SchemaVersion, Jobs: make([]api.JobStatus, len(jobs))}
	for i, j := range jobs {
		l.Jobs[i] = j.status()
	}
	writeJSON(w, http.StatusOK, l)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.status())
}

// handleResults streams the job's runs as NDJSON in submission order and
// terminates with the report line once the job is terminal and flushed.
// Each run line is appended without reflection into one per-request
// buffer and written on its own; the report line stays on encoding/json.
// Convert leaves no value a run line cannot encode, so a line that fails
// to encode ends the stream without its report, loudly.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var lines api.RunLineWriter
	var buf []byte
	sent := 0
	for {
		next, ch, terminal := j.watch(sent)
		for i := range next {
			var err error
			if buf, err = lines.AppendRunLine(buf[:0], &next[i]); err != nil {
				return
			}
			if _, err := w.Write(buf); err != nil {
				return
			}
		}
		sent += len(next)
		if len(next) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			// Everything landed before the terminal transition is flushed
			// (finish bumps after the last land); stragglers can't exist.
			json.NewEncoder(w).Encode(api.ResultLine{Report: j.report()})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}
