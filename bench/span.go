package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one bracketed call from the benchmark into a layer's public
// functions: name, start, end, the span that caused it, and the
// workload/rep it belongs to. Times are nanoseconds since the recorder
// started.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory until the run ends. A nil recorder is the
// spans-off mode: begin returns noSpan and end ignores it, so call sites
// bracket unconditionally. The mutex is for the few places a second
// goroutine (the live-query poller) records alongside the main loop.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

const noSpan = -1

func newRecorder(workload string) *recorder {
	// Pre-sized so that recording does not allocate on the measured path.
	return &recorder{t0: time.Now(), workload: workload, spans: make([]span, 0, 1<<14)}
}

// begin opens a span under parent (noSpan for a root) and returns its ID.
func (r *recorder) begin(parent int, name string, rep int) int {
	if r == nil {
		return noSpan
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Rep: rep, StartNS: now, EndNS: now})
	r.mu.Unlock()
	return id
}

// end closes the span.
func (r *recorder) end(id int) {
	if r == nil || id == noSpan {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].EndNS = now
	r.mu.Unlock()
}

// mark records an already-measured interval as a closed span; used where
// the boundary is an event inside a call (the first NDJSON line of a
// results stream) rather than a call of its own.
func (r *recorder) mark(parent int, name string, rep int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Workload: r.workload, Rep: rep,
		StartNS: int64(start.Sub(r.t0)), EndNS: int64(end.Sub(r.t0))})
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeTo writes the spans as one JSON document.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{r.snapshot()}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span, its duration minus the part of that
// interval its direct children cover. Children are clipped to the parent
// and overlapping children (concurrent calls) are counted once, so a
// tree's self times always sum to at most its root's duration, and to
// exactly that when no two siblings overlap.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals inside p.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	edge := p.StartNS
	for _, k := range kids {
		lo, hi := k.StartNS, k.EndNS
		if lo < edge {
			lo = edge
		}
		if hi > p.EndNS {
			hi = p.EndNS
		}
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// printBudget writes the span tree under root as an indented budget: each
// line a span's inclusive and self time, closing with the sum of self
// times against the root's duration (the "does the budget add up" check).
func printBudget(w io.Writer, spans []span, root int) {
	self := selfTimes(spans)
	children := map[int][]int{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	var sum int64
	var walk func(id, depth int)
	walk = func(id, depth int) {
		s := spans[id]
		sum += self[id]
		fmt.Fprintf(w, "  %*s%-*s %10.3f ms  self %10.3f ms\n", 2*depth, "", 34-2*depth, s.Name,
			float64(s.dur())/1e6, float64(self[id])/1e6)
		for _, c := range children[id] {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	total := spans[root].dur()
	fmt.Fprintf(w, "  self times sum to %.3f ms of %.3f ms (%.1f%%)\n",
		float64(sum)/1e6, float64(total)/1e6, 100*float64(sum)/float64(total))
}
