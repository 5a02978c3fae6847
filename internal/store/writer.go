package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Writer appends run segments to a campaign directory. Segments are
// encoded by their owning workers (Segment methods) and serialized to disk
// in strict index order by Commit's in-order window, so the campaign's
// bytes never depend on worker count or completion order.
//
// Errors stick: the first disk or encoding failure poisons the writer,
// later Commits become no-ops, and Close reports it — a fleet does not
// need per-job error plumbing for its results sink.
type Writer struct {
	mu      sync.Mutex
	dir     string
	opts    Options
	next    int
	pending map[int]*Segment

	f        *os.File
	fileSeq  int
	slots    []slot
	blockOff uint64
	err      error
	closed   bool
}

// Create opens a campaign writer on dir, creating it if needed. An
// existing campaign in dir is extended with new files (existing files are
// never reopened or rewritten).
func Create(dir string, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names, err := campaignFiles(dir)
	if err != nil {
		return nil, err
	}
	return &Writer{
		dir:     dir,
		opts:    opts.resolved(),
		pending: map[int]*Segment{},
		fileSeq: len(names),
	}, nil
}

// fileName formats the seq-th campaign file name.
func fileName(seq int) string { return fmt.Sprintf("phantomdb-%05d.pdb", seq) }

// campaignFiles lists the campaign's .pdb files in name (= creation)
// order.
func campaignFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".pdb" {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// NewSegment starts a segment for one run under the writer's options. It
// takes no lock: segments build on their own goroutines.
func (w *Writer) NewSegment(meta RunMeta) *Segment {
	return &Segment{meta: meta, opts: w.opts}
}

// Commit hands the segment for run index idx to the writer. Indexes must
// cover 0..N-1 exactly once across all callers; the segment hits the disk
// when every lower index has landed, so on-disk order — and therefore
// every byte of the campaign — is independent of which worker commits
// first. Blocks until the write happens or the segment is parked in the
// reorder window. An error poisons the writer and resurfaces on Close.
func (w *Writer) Commit(idx int, seg *Segment) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		w.err = fmt.Errorf("store: commit on closed writer")
		return w.err
	}
	if seg.err != nil {
		w.err = seg.err
		return w.err
	}
	if idx < w.next || w.pending[idx] != nil {
		w.err = fmt.Errorf("store: run index %d committed twice", idx)
		return w.err
	}
	w.pending[idx] = seg
	for {
		s, ok := w.pending[w.next]
		if !ok {
			return nil
		}
		delete(w.pending, w.next)
		w.next++
		if err := w.writeSegment(s); err != nil {
			w.err = err
			return w.err
		}
	}
}

// Append commits the segment at the next free index — the sequential
// caller's interface (one goroutine, no fleet).
func (w *Writer) Append(seg *Segment) error {
	w.mu.Lock()
	idx := w.next + len(w.pending)
	w.mu.Unlock()
	return w.Commit(idx, seg)
}

// writeSegment appends the segment's blocks to the current file, sealing
// and rolling files as the fixed index fills. Caller holds mu.
func (w *Writer) writeSegment(seg *Segment) error {
	for _, b := range seg.blocks {
		if w.f != nil && len(w.slots) >= w.opts.SlotsPerFile {
			if err := w.sealFile(); err != nil {
				return err
			}
		}
		if w.f == nil {
			if err := w.createFile(); err != nil {
				return err
			}
		}
		if _, err := w.f.Write(b.data); err != nil {
			return err
		}
		b.s.off = w.blockOff
		w.blockOff += uint64(len(b.data))
		w.slots = append(w.slots, b.s)
	}
	return nil
}

// createFile opens the next campaign file and reserves its header + index
// region (zeroed; finalized by sealFile).
func (w *Writer) createFile() error {
	path := filepath.Join(w.dir, fileName(w.fileSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	reserved := make([]byte, headerSize+w.opts.SlotsPerFile*slotSize)
	if _, err := f.Write(reserved); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.fileSeq++
	w.slots = w.slots[:0]
	w.blockOff = uint64(len(reserved))
	return nil
}

// sealFile finalizes the current file: it rewrites the reserved region
// with the real header (sealed marker set) and the used index slots, then
// closes the file. A file without this trailer-less seal (a crashed write)
// is rejected by Open.
func (w *Writer) sealFile() error {
	buf := make([]byte, headerSize+w.opts.SlotsPerFile*slotSize)
	copy(buf, Magic)
	binary.LittleEndian.PutUint32(buf[4:], Version)
	binary.LittleEndian.PutUint32(buf[8:], uint32(w.opts.SlotsPerFile))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(w.slots)))
	binary.LittleEndian.PutUint32(buf[16:], 1) // sealed
	for i := range w.slots {
		w.slots[i].marshal(buf[headerSize+i*slotSize:])
	}
	if _, err := w.f.WriteAt(buf, 0); err != nil {
		w.f.Close()
		w.f = nil
		return err
	}
	err := w.f.Close()
	w.f = nil
	w.slots = w.slots[:0]
	return err
}

// Close seals the open file and reports the writer's sticky error, if
// any. Every committed index must have flushed: parked segments (a gap in
// the index sequence) are an error, because silently dropping them would
// break the campaign's run-order contract.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		if w.f != nil {
			w.f.Close()
			w.f = nil
		}
		return w.err
	}
	if len(w.pending) > 0 {
		w.err = fmt.Errorf("store: %d segments uncommitted at close (gap at run index %d)", len(w.pending), w.next)
		if w.f != nil {
			w.f.Close()
			w.f = nil
		}
		return w.err
	}
	if w.f != nil {
		w.err = w.sealFile()
	}
	return w.err
}
