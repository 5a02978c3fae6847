package serve

import (
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/runner"
	"repro/internal/store"
)

// job is one accepted campaign: the expansion plus its live execution
// state. Results land by job index behind an in-order waterline — exactly
// the store writer's trick — so the streaming endpoint emits runs in
// submission order and the stream's payload is independent of worker
// scheduling.
type job struct {
	id       string
	spec     api.JobSpec
	exp      *api.Expansion
	storeDir string
	// adopted marks a pre-existing campaign registered at startup: no
	// expansion, no runs, terminal from birth — only its store answers.
	adopted bool

	mu        sync.Mutex
	state     api.JobState
	results   []api.RunResult
	landed    []bool
	waterline int // first index not yet landed; results[:waterline] are final
	done      int // landed runs (any completion order)
	failed    int
	canceled  int // canceled runs
	stats     runner.Stats
	errMsg    string
	// sealed is the terminal job's campaign, opened once; every query
	// scans a clone of it (see Server.openJobStore).
	sealed    *store.Reader
	cancelled bool // cancel requested (by DELETE or drain)
	cancel    func()
	submitted time.Time
	started   time.Time
	finished  time.Time
	// updated is closed and replaced on every visible change; streamers
	// and pollers re-check after it fires.
	updated chan struct{}
}

func newJob(id string, spec api.JobSpec, exp *api.Expansion, storeDir string) *job {
	return &job{
		id:        id,
		spec:      spec,
		exp:       exp,
		storeDir:  storeDir,
		state:     api.JobQueued,
		results:   make([]api.RunResult, len(exp.Jobs)),
		landed:    make([]bool, len(exp.Jobs)),
		submitted: time.Now(),
		updated:   make(chan struct{}),
	}
}

// adoptedJob wraps a pre-existing campaign directory as a terminal job.
func adoptedJob(id, storeDir string) *job {
	return &job{
		id:       id,
		storeDir: storeDir,
		adopted:  true,
		state:    api.JobDone,
		updated:  make(chan struct{}),
	}
}

// bump wakes every watcher. Caller holds mu.
func (j *job) bump() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// land records run i's wire result and advances the waterline.
func (j *job) land(i int, rr api.RunResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.results[i] = rr
	j.landed[i] = true
	j.done++
	switch {
	case rr.Canceled:
		j.canceled++
	case rr.Failed():
		j.failed++
	}
	for j.waterline < len(j.landed) && j.landed[j.waterline] {
		j.waterline++
	}
	j.bump()
}

// start transitions queued → running and installs the cancel func. It
// returns false when the job was cancelled while queued — the worker must
// skip it (finish already ran).
func (j *job) start(cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != api.JobQueued {
		return false
	}
	if j.cancelled {
		// Cancel raced our dequeue; honor it without running anything.
		j.state = api.JobCanceled
		j.finished = time.Now()
		j.bump()
		return false
	}
	j.state = api.JobRunning
	j.started = time.Now()
	j.cancel = cancel
	j.bump()
	return true
}

// finish records the terminal state after the fleet drained.
func (j *job) finish(stats runner.Stats, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// The fleet counts the runs whose experiment returned an error; the
	// landed runs also count those Convert failed, as the stream shows them.
	stats.Failed = j.failed
	j.stats = stats
	j.errMsg = errMsg
	j.finished = time.Now()
	switch {
	case errMsg != "":
		j.state = api.JobFailed
	case j.cancelled || stats.Canceled > 0:
		j.state = api.JobCanceled
	default:
		j.state = api.JobDone
	}
	j.cancel = nil
	j.bump()
}

// requestCancel marks the job cancelled; a queued job terminates on the
// spot, a running one has its fleet context cancelled and finishes when
// the in-flight runs land.
func (j *job) requestCancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.cancelled {
		return
	}
	j.cancelled = true
	if j.state == api.JobQueued {
		j.state = api.JobCanceled
		j.finished = time.Now()
		j.bump()
		return
	}
	if j.cancel != nil {
		j.cancel()
	}
	j.bump()
}

// unixMS renders a wall time for the wire (0 for the zero time).
func unixMS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

// status snapshots the wire status.
func (j *job) status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return api.JobStatus{
		SchemaVersion:   api.SchemaVersion,
		ID:              j.id,
		State:           j.state,
		Kind:            j.spec.Kind,
		Tag:             j.spec.Tag,
		Total:           len(j.results),
		Done:            j.done,
		Failed:          j.failed,
		CanceledRuns:    j.canceled,
		Error:           j.errMsg,
		Store:           j.storeDir,
		Adopted:         j.adopted,
		SubmittedUnixMS: unixMS(j.submitted),
		StartedUnixMS:   unixMS(j.started),
		FinishedUnixMS:  unixMS(j.finished),
	}
}

// watch returns the stream cursor state: the runs landed since sent, the
// current update channel, and whether the job is terminal with every
// landed run flushed.
func (j *job) watch(sent int) (next []api.RunResult, ch chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if sent < j.waterline {
		next = append(next, j.results[sent:j.waterline]...)
	}
	return next, j.updated, j.state.Terminal()
}

// report builds the stream's terminal line: stats plus final status,
// result rows omitted (they streamed individually).
func (j *job) report() *api.Report {
	j.mu.Lock()
	stats := j.stats
	j.mu.Unlock()
	st := j.status()
	return &api.Report{
		SchemaVersion: api.SchemaVersion,
		Kind:          j.spec.Kind,
		Stats:         api.WireStats(stats),
		Job:           &st,
	}
}
