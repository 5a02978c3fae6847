package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// TestScanClosesEachFile: a scan holds at most one campaign file open —
// the one it is walking — however many files the campaign has.
func TestScanClosesEachFile(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{SlotsPerFile: 4})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	for i := 0; i < runs; i++ {
		seg := w.NewSegment(RunMeta{Experiment: "fd", Sweep: i, End: sim.Time(i)})
		seg.AddSummary(map[string]float64{"i": float64(i)})
		seg.AddCounters(map[string]uint64{"i": uint64(i)})
		if err := w.Append(seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if dir, err = filepath.EvalSymlinks(dir); err != nil {
		t.Fatal(err)
	}
	rows, most := 0, 0
	if err := r.Summaries(Query{Sweep: AnySweep}, func(RunSummary) error {
		rows++
		most = max(most, openFilesIn(t, dir))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != runs {
		t.Fatalf("scan returned %d rows, want %d", rows, runs)
	}
	if most != 1 {
		t.Fatalf("a scan of %d files held up to %d of them open at once, want 1", r.Stats().Files, most)
	}
}

// openFilesIn counts the process's descriptors open on files in dir.
func openFilesIn(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, fd := range fds {
		// The descriptor ReadDir read through is closed by now.
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && filepath.Dir(target) == dir {
			n++
		}
	}
	return n
}
