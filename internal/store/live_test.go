package store

import (
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// liveRunPoints is the series every synthetic run persists: run i's point p
// sits at T = 1000i+p with V = i + p/8, so a reader can verify decoded
// content exactly, not just shape.
const liveRunPoints = 8

func liveSegment(w *Writer, i int) *Segment {
	seg := w.NewSegment(RunMeta{Experiment: "live/acr", Sweep: i, End: sim.Time(1000*i + liveRunPoints - 1)})
	pts := make([]metrics.Point, liveRunPoints)
	for p := range pts {
		pts[p] = metrics.Point{T: sim.Time(1000*i + p), V: float64(i) + float64(p)/8}
	}
	seg.AddSeries("acr", pts)
	seg.AddSummary(map[string]float64{"goodput": float64(i)})
	return seg
}

// verifyLiveChunks checks every delivered chunk against the synthetic
// formula — a full CRC + decode + content check of the sealed prefix.
func verifyLiveChunks(t *testing.T, chunks []SeriesChunk) (runs int) {
	t.Helper()
	seen := map[int]int{}
	for _, c := range chunks {
		if c.Experiment != "live/acr" || c.Name != "acr" {
			t.Fatalf("chunk identity %q/%q", c.Experiment, c.Name)
		}
		for _, p := range c.Points {
			i, off := int(p.T)/1000, int(p.T)%1000
			if i != c.Sweep {
				t.Fatalf("point T=%d landed in sweep %d", p.T, c.Sweep)
			}
			if want := float64(i) + float64(off)/8; p.V != want {
				t.Fatalf("run %d point %d: V=%v, want %v", i, off, p.V, want)
			}
			seen[i]++
		}
	}
	for i, n := range seen {
		if n != liveRunPoints {
			t.Fatalf("run %d delivered %d points, want %d (sealed files must hold whole blocks)", i, n, liveRunPoints)
		}
	}
	return len(seen)
}

// TestLiveReaderConcurrentWriter is the live-read contract under -race:
// while a Writer appends and seals files, concurrent OpenLive readers must
// serve every already-sealed file — CRC-verified, content-exact — and skip
// only the in-progress tail. Tiny files (8 slots) force frequent seals so
// the reader repeatedly observes the campaign mid-roll.
func TestLiveReaderConcurrentWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{SlotsPerFile: 8, BlockRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	const totalRuns = 300
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < totalRuns; i++ {
			if err := w.Append(liveSegment(w, i)); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()

	cache := NewCache()
	sawSealed := false
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		r, err := cache.OpenLive(dir)
		if err != nil {
			t.Fatalf("OpenLive on a live campaign: %v", err)
		}
		var chunks []SeriesChunk
		err = r.Series(Query{Experiment: "live/acr", Name: "acr", Sweep: AnySweep}, func(c SeriesChunk) error {
			chunks = append(chunks, c)
			return nil
		})
		if err != nil {
			t.Fatalf("live query: %v", err)
		}
		if verifyLiveChunks(t, chunks) > 0 {
			sawSealed = true
		}
	}
	wg.Wait()
	if !sawSealed {
		t.Fatal("no live open ever saw a sealed file; shrink SlotsPerFile")
	}

	// After Close the campaign is fully sealed: live and strict opens agree
	// and deliver every run.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, open := range []func(string) (*Reader, error){Open, (*Cache)(nil).OpenLive, cache.Open, cache.OpenLive} {
		r, err := open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats().FilesInProgress != 0 {
			t.Fatalf("sealed campaign reports %d in-progress files", r.Stats().FilesInProgress)
		}
		var chunks []SeriesChunk
		if err := r.Series(Query{Sweep: AnySweep}, func(c SeriesChunk) error {
			chunks = append(chunks, c)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := verifyLiveChunks(t, chunks); got != totalRuns {
			t.Fatalf("sealed campaign delivered %d runs, want %d", got, totalRuns)
		}
	}
}

// TestOpenLiveSkipsOnlyTrailingFile pins the strictness split: a sealed
// campaign opens identically in both modes, an unsealed trailing file is
// skipped only by OpenLive, and Open still rejects it as a crashed writer.
func TestOpenLiveSkipsOnlyTrailingFile(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{SlotsPerFile: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 4 slots/file and 2 blocks/run: two runs seal file 0; the third run
	// leaves file 1 unsealed when we abandon the writer without Close.
	for i := 0; i < 3; i++ {
		if err := w.Append(liveSegment(w, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a campaign with an unsealed trailing file")
	}
	r, err := (*Cache)(nil).OpenLive(dir)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	st := r.Stats()
	if st.Files != 1 || st.FilesInProgress != 1 {
		t.Fatalf("stats = %+v, want 1 sealed file and 1 in progress", st)
	}
	runs := map[int]bool{}
	if err := r.Series(Query{Sweep: AnySweep}, func(c SeriesChunk) error {
		runs[c.Sweep] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !runs[0] || !runs[1] || runs[2] {
		t.Fatalf("live view served runs %v, want exactly the sealed prefix {0,1}", runs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
