package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// AnySweep matches every sweep index in a Query.
const AnySweep = -1

// Query selects blocks and rows. Index-backed fields (Experiment, Name,
// Component, Sweep) match exactly — exact keys are what the fixed-size
// slot hashes can pre-filter, so a matching query never decompresses a
// block it does not need. Substring matching on trace kind/detail stays a
// post-filter in the consumer (phantom-trace), where the events are
// already in hand.
//
// The zero value matches everything except sweeps: set Sweep to AnySweep
// (-1) to span a parameter sweep, or >= 0 to pin one point. The window
// [From, To] is inclusive, with To == 0 meaning unbounded.
type Query struct {
	Experiment string
	// Name is the exact series name (KindSeries queries only).
	Name string
	// Component is the exact trace component (KindTrace queries only).
	// Blocks whose events all share one component are skipped on mismatch
	// without decompression; mixed blocks are scanned and row-filtered.
	Component string
	Sweep     int
	From, To  sim.Time
}

// matchSlot decides block relevance from the index alone.
func (q *Query) matchSlot(s *slot, expHash, nameHash, compHash uint64) bool {
	if q.Experiment != "" && s.expHash != expHash {
		return false
	}
	if q.Sweep >= 0 && s.sweep != uint32(q.Sweep) {
		return false
	}
	if s.tMax < q.From || (q.To != 0 && s.tMin > q.To) {
		return false
	}
	if q.Name != "" && s.kind == KindSeries && s.nameHash != nameHash {
		return false
	}
	if q.Component != "" && s.kind == KindTrace && s.nameHash != 0 && s.nameHash != compHash {
		return false
	}
	return true
}

// rulesOut decides from a file's zone alone that matchSlot rejects every
// slot the zone summarises: matchSlot's window test, against the zone's
// time range. A file with no slot of the kind is ruled out too.
func (q *Query) rulesOut(z *zone) bool {
	return z.n == 0 || z.tMax < q.From || (q.To != 0 && z.tMin > q.To)
}

// inWindow reports whether t falls in the query's time window.
func (q *Query) inWindow(t sim.Time) bool {
	return t >= q.From && (q.To == 0 || t <= q.To)
}

// ScanStats counts index-level work per kind-matching block: Blocks were
// considered, BlocksScanned were read + decompressed, BlocksSkipped were
// rejected from the index alone. BytesRead is the compressed bytes of the
// scanned blocks; a coalesced read may also fetch skipped blocks lying
// between two matches, and those bytes are not counted.
// FilesSkipped counts files whose zone map ruled out every block of the
// queried kind, so their slots were never walked; their blocks still count
// in Blocks and BlocksSkipped. FilesInProgress counts trailing files a
// live-mode open skipped because a writer had not sealed them yet —
// non-zero means the answer is a prefix of a still-growing campaign. The
// JSON form is the analytics plane's Phantom-Scan-Stats trailer.
type ScanStats struct {
	Files           int   `json:"files"`
	FilesInProgress int   `json:"files_in_progress,omitempty"`
	FilesSkipped    int   `json:"files_skipped"`
	Blocks          int   `json:"blocks"`
	BlocksScanned   int   `json:"blocks_scanned"`
	BlocksSkipped   int   `json:"blocks_skipped"`
	BytesRead       int64 `json:"bytes_read"`
}

// Add folds another scan's statistics into s.
func (s *ScanStats) Add(o ScanStats) {
	s.Files += o.Files
	s.FilesInProgress += o.FilesInProgress
	s.FilesSkipped += o.FilesSkipped
	s.Blocks += o.Blocks
	s.BlocksScanned += o.BlocksScanned
	s.BlocksSkipped += o.BlocksSkipped
	s.BytesRead += o.BytesRead
}

// fileIndex is one campaign file's loaded index, with one zone per block
// kind.
type fileIndex struct {
	path  string
	slots []slot
	zones [KindSummary + 1]zone
}

// zone summarises every slot of one kind in one file: a query whose window
// misses the zone's time range cannot match any of them, so the scan need
// not walk the file. It is built once, when the index is loaded. The skip
// pays off only when runs occupy separate stretches of simulated time;
// runs that all start at t = 0 give every file the same range.
type zone struct {
	n          int
	tMin, tMax sim.Time // least slot tMin, greatest slot tMax
}

func (z *zone) add(s *slot) {
	if z.n == 0 {
		z.tMin, z.tMax = s.tMin, s.tMax
	}
	z.n++
	z.tMin = min(z.tMin, s.tMin)
	z.tMax = max(z.tMax, s.tMax)
}

// Reader answers queries over a campaign directory by streaming matching
// blocks from disk — it never loads a whole campaign. A Reader is
// single-goroutine; its query methods accumulate ScanStats.
type Reader struct {
	files []*fileIndex
	stats ScanStats
}

// Open loads the block indexes (not the blocks) of every sealed campaign
// file in dir. An empty campaign (no files) is a valid, empty reader.
func Open(dir string) (*Reader, error) {
	return (*Cache)(nil).Open(dir)
}

// Cache memoizes per-file block indexes across Reader opens. Sealed
// campaign files never change, so a daemon serving many queries over the
// same campaigns pays the header+index read once per file, making re-Open
// on a live campaign cost one ReadDir plus one Stat per file. A nil *Cache
// is valid and caches nothing. Safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	files map[string]cachedIndex
}

// cachedIndex remembers the file size the index was loaded at; a size
// mismatch (a recreated path) invalidates the entry. A loaded index is
// never modified, so every reader shares it.
type cachedIndex struct {
	size int64
	fi   *fileIndex
}

// NewCache returns an empty index cache.
func NewCache() *Cache { return &Cache{files: make(map[string]cachedIndex)} }

// load returns the file's index, from cache when its size still matches.
func (c *Cache) load(path string) (*fileIndex, error) {
	if c == nil {
		return readIndex(path)
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	e, ok := c.files[path]
	c.mu.Unlock()
	if ok && e.size == info.Size() {
		return e.fi, nil
	}
	fi, err := readIndex(path)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.files[path] = cachedIndex{size: info.Size(), fi: fi}
	c.mu.Unlock()
	return fi, nil
}

// Open is Open(dir) with this cache's memoized indexes.
func (c *Cache) Open(dir string) (*Reader, error) { return c.open(dir, false) }

// OpenLive opens an in-progress campaign with this cache's memoized
// indexes: every sealed file is served, and the trailing file a live
// Writer is still appending to (unsealed, or sealing concurrently with our
// header read) is skipped and counted in ScanStats.FilesInProgress. Sealed
// files are immutable, so a live reader and a concurrent writer never
// share mutable state — dashboards can query a campaign mid-run and
// re-open cheaply as new files seal.
func (c *Cache) OpenLive(dir string) (*Reader, error) { return c.open(dir, true) }

func (c *Cache) open(dir string, live bool) (*Reader, error) {
	names, err := campaignFiles(dir)
	if err != nil {
		return nil, err
	}
	r := &Reader{}
	for i, name := range names {
		path := filepath.Join(dir, name)
		fi, err := c.load(path)
		if err != nil {
			// Only the last file can legitimately be mid-write: the writer
			// seals file N before creating N+1. An unreadable index earlier
			// in the sequence is corruption in any mode.
			if live && i == len(names)-1 {
				r.stats.FilesInProgress++
				continue
			}
			return nil, err
		}
		r.files = append(r.files, fi)
	}
	r.stats.Files = len(r.files)
	return r, nil
}

// maxFlateRatio is deflate's format limit on expansion: a 258-byte match
// costs at least two bits.
const maxFlateRatio = 1032

// checkSlot bounds by the file's size everything a slot makes the reader
// allocate: the block lies in the data region, its raw length is one its
// codec can produce from encLen bytes, and its row count fits in rawLen
// (a row of any kind costs at least two raw bytes).
func checkSlot(s *slot, dataStart, size uint64) error {
	switch {
	case s.kind < KindSeries || s.kind > KindSummary:
		return fmt.Errorf("unknown block kind %d", s.kind)
	case s.off < dataStart:
		return fmt.Errorf("points into the index region")
	case s.off > size || uint64(s.encLen) > size-s.off:
		return fmt.Errorf("block of %d bytes at offset %d runs past the end of the file (%d bytes)", s.encLen, s.off, size)
	case 2*uint64(s.rows) > uint64(s.rawLen):
		return fmt.Errorf("%d rows cannot fit in %d raw bytes", s.rows, s.rawLen)
	}
	switch s.comp {
	case CompressionNone:
		if s.rawLen != s.encLen {
			return fmt.Errorf("uncompressed block of %d bytes claims %d raw bytes", s.encLen, s.rawLen)
		}
	case CompressionFlate:
		if uint64(s.rawLen) > maxFlateRatio*uint64(s.encLen) {
			return fmt.Errorf("flate block of %d bytes claims %d raw bytes", s.encLen, s.rawLen)
		}
	default:
		return fmt.Errorf("unknown compression %d", s.comp)
	}
	return nil
}

// readIndex loads and validates one file's header + index region and
// builds its zones. Every allocation it, or a later read of the file's
// blocks, makes is bounded by the file's size.
func readIndex(path string) (*fileIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := uint64(info.Size())
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("store: %s: short header: %w", path, err)
	}
	if string(hdr[:4]) != Magic {
		return nil, fmt.Errorf("store: %s: bad magic %q", path, hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != Version {
		return nil, fmt.Errorf("store: %s: version %d, want %d", path, v, Version)
	}
	slotCount := binary.LittleEndian.Uint32(hdr[8:])
	used := binary.LittleEndian.Uint32(hdr[12:])
	sealed := binary.LittleEndian.Uint32(hdr[16:])
	if sealed != 1 {
		return nil, fmt.Errorf("store: %s: unsealed file (crashed writer?)", path)
	}
	if slotCount == 0 || slotCount > 1<<20 || used > slotCount {
		return nil, fmt.Errorf("store: %s: implausible index (%d/%d slots)", path, used, slotCount)
	}
	dataStart := uint64(headerSize) + uint64(slotCount)*slotSize
	if dataStart > size {
		return nil, fmt.Errorf("store: %s: short index: %d slots need %d bytes, file has %d", path, slotCount, dataStart, size)
	}
	buf := make([]byte, int(used)*slotSize)
	if _, err := f.ReadAt(buf, headerSize); err != nil {
		return nil, fmt.Errorf("store: %s: short index: %w", path, err)
	}
	fi := &fileIndex{path: path, slots: make([]slot, used)}
	for i := range fi.slots {
		s := &fi.slots[i]
		s.unmarshal(buf[i*slotSize:])
		if err := checkSlot(s, dataStart, size); err != nil {
			return nil, fmt.Errorf("store: %s: slot %d: %v", path, i, err)
		}
		fi.zones[s.kind].add(s)
	}
	return fi, nil
}

// Stats returns the accumulated scan statistics.
func (r *Reader) Stats() ScanStats { return r.stats }

// ResetStats zeroes the scan counters (the open-time file counts are
// preserved).
func (r *Reader) ResetStats() {
	r.stats = ScanStats{Files: r.stats.Files, FilesInProgress: r.stats.FilesInProgress}
}

// Clone returns a reader over the same loaded indexes with fresh scan
// counters, as ResetStats leaves them. Loaded indexes are never modified,
// so clones may query on separate goroutines while r's owner keeps r as a
// template; each clone is single-goroutine like any Reader.
func (r *Reader) Clone() *Reader {
	c := &Reader{files: r.files, stats: r.stats}
	c.ResetStats()
	return c
}

// A scan fetches the matching blocks of a file in spans: one ReadAt covers
// a run of matches and whatever lies between them. A match joins the
// current span only while the bytes skipped since the previous match stay
// under readGap and the span stays within readSpan; a block larger than
// readSpan is read alone. Both are constants because the index already
// says where every block lies and how long it is — there is nothing left
// for a caller to tune.
const (
	// readGap is where reading through the bytes between two matches stops
	// beating a second read. Measured by full summary scans of
	// daemon-written campaigns (2-vCPU Linux, warm page cache), against
	// reading every block alone: reading through 331-byte gaps was 5 %
	// faster, through 3.4 KiB gaps even, through 5.4 KiB gaps 1–5 % slower
	// and through 12–16 KiB gaps 9–18 % slower.
	readGap = 4 << 10
	// readSpan bounds one read, and with it the span buffer.
	readSpan = 256 << 10
)

// scan walks every block of the wanted kind, applying the index filter,
// and hands decompressed payloads to fn in (file, block) order — which is
// commit order, i.e. run order. Skipped blocks are never decompressed, and
// a file whose zone rules the query out is not walked at all. raw is valid
// only during fn: the scan reuses its buffers for the blocks that follow,
// so fn copies what it keeps (every decoder does).
func (r *Reader) scan(kind Kind, q Query, fn func(s *slot, raw []byte) error) error {
	sc := newScanner(r, kind, q)
	defer sc.release()
	return sc.run(fn)
}

// scanner is one scan's state: the query's hashed keys, the current span,
// and the buffers and flate reader every block of the scan reuses.
type scanner struct {
	r                           *Reader
	kind                        Kind
	q                           Query
	expHash, nameHash, compHash uint64

	// span holds the file's bytes from offset start; the first n are valid,
	// and err says why a read stopped short of len(span). Slots before next
	// are the ones the span was planned for.
	span  []byte
	start uint64
	n     int
	err   error
	next  int

	raw []byte
	br  bytes.Reader
	fr  io.ReadCloser // from flateReaders, taken at the first flate block
}

func newScanner(r *Reader, kind Kind, q Query) *scanner {
	return &scanner{
		r: r, kind: kind, q: q,
		expHash: hashStr(q.Experiment), nameHash: hashStr(q.Name), compHash: hashStr(q.Component),
	}
}

// run walks every file whose zone does not rule the query out.
func (sc *scanner) run(fn func(s *slot, raw []byte) error) error {
	st := &sc.r.stats
	for _, file := range sc.r.files {
		if z := &file.zones[sc.kind]; sc.q.rulesOut(z) {
			st.FilesSkipped++
			st.Blocks += z.n
			st.BlocksSkipped += z.n
			continue
		}
		if err := sc.walk(file, fn); err != nil {
			return err
		}
	}
	return nil
}

func (sc *scanner) match(s *slot) bool {
	return s.kind == sc.kind && sc.q.matchSlot(s, sc.expHash, sc.nameHash, sc.compHash)
}

// release returns the flate reader to its pool.
func (sc *scanner) release() {
	if sc.fr != nil {
		flateReaders.Put(sc.fr)
	}
}

// walk hands fn the file's matching blocks in slot order. The file is
// opened at its first match and closed when its walk ends, so a scan holds
// at most one campaign file open.
func (sc *scanner) walk(file *fileIndex, fn func(s *slot, raw []byte) error) error {
	st := &sc.r.stats
	var f *os.File
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	sc.next = 0
	for i := range file.slots {
		s := &file.slots[i]
		if s.kind != sc.kind {
			continue
		}
		st.Blocks++
		if !sc.match(s) {
			st.BlocksSkipped++
			continue
		}
		if f == nil {
			var err error
			if f, err = os.Open(file.path); err != nil {
				return err
			}
		}
		if i >= sc.next {
			sc.fill(f, file.slots, i)
		}
		raw, err := sc.block(file.path, i, s)
		if err != nil {
			return err
		}
		st.BlocksScanned++
		st.BytesRead += int64(s.encLen)
		if err := fn(s, raw); err != nil {
			return err
		}
	}
	return nil
}

// fill reads the span that opens with slot i's block. Lookahead stops at
// the first slot past the gap: a well-formed file lays blocks out in slot
// order, so nothing after it can join.
func (sc *scanner) fill(f *os.File, slots []slot, i int) {
	start := slots[i].off
	end := start + uint64(slots[i].encLen)
	next := i + 1
	for j := i + 1; j < len(slots); j++ {
		s := &slots[j]
		if s.off >= end+readGap {
			break
		}
		if !sc.match(s) {
			continue
		}
		if s.off < end || s.off+uint64(s.encLen)-start > readSpan {
			break
		}
		end = s.off + uint64(s.encLen)
		next = j + 1
	}
	// checkSlot bounds every block by the file's size, and so the span.
	need := int(end - start)
	if cap(sc.span) < need {
		sc.span = make([]byte, need)
	}
	sc.span = sc.span[:need]
	sc.n, sc.err = f.ReadAt(sc.span, int64(start))
	sc.start, sc.next = start, next
}

// block CRC-checks slot i's block in the span and decompresses it.
func (sc *scanner) block(path string, i int, s *slot) ([]byte, error) {
	lo := s.off - sc.start
	hi := lo + uint64(s.encLen)
	if hi > uint64(sc.n) && hi > lo { // an empty block needs no bytes
		return nil, fmt.Errorf("store: %s: block %d read: %w", path, i, sc.err)
	}
	enc := sc.span[lo:hi]
	if crc := crc32.ChecksumIEEE(enc); crc != s.crc {
		return nil, fmt.Errorf("store: %s: block %d CRC mismatch (%08x != %08x): corrupt file", path, i, crc, s.crc)
	}
	if s.comp == CompressionNone { // checkSlot: rawLen == encLen
		return enc, nil
	}
	sc.br.Reset(enc)
	if sc.fr == nil {
		sc.fr = flateReaders.Get().(io.ReadCloser)
	}
	if err := sc.fr.(flate.Resetter).Reset(&sc.br, nil); err != nil {
		return nil, err
	}
	if cap(sc.raw) < int(s.rawLen) {
		sc.raw = make([]byte, s.rawLen)
	}
	raw := sc.raw[:s.rawLen]
	if _, err := io.ReadFull(sc.fr, raw); err != nil {
		return nil, fmt.Errorf("store: short block decompress: %w", err)
	}
	return raw, nil
}

// SeriesChunk is one delivered run of series points: a block's rows after
// row-level window filtering. A long series arrives as several chunks in
// time order.
type SeriesChunk struct {
	Experiment string
	Sweep      int
	Name       string
	Points     []metrics.Point
}

// Series streams matching series points. Chunks arrive in run order, and
// within a run in time order.
func (r *Reader) Series(q Query, fn func(SeriesChunk) error) error {
	return r.scan(KindSeries, q, func(s *slot, raw []byte) error {
		exp, name, pts, err := decodeSeriesBlock(raw, int(s.rows))
		if err != nil {
			return err
		}
		// Re-verify the exact strings the slot only hashed.
		if (q.Experiment != "" && exp != q.Experiment) || (q.Name != "" && name != q.Name) {
			return nil
		}
		out := pts[:0]
		for _, p := range pts {
			if q.inWindow(p.T) {
				out = append(out, p)
			}
		}
		if len(out) == 0 {
			return nil
		}
		return fn(SeriesChunk{Experiment: exp, Sweep: int(s.sweep), Name: name, Points: out})
	})
}

// scalar is the value type of a run's named scalars: float64 for summary
// metrics, uint64 for telemetry counters.
type scalar interface{ float64 | uint64 }

// Columns is one run's named scalars in the two columns its block stores:
// Names sorted bytewise and strictly increasing, and Values[i] the value of
// Names[i]. Consecutive rows of a scan may share one Names slice, which is
// never modified once handed out.
type Columns[V scalar] struct {
	Experiment string
	Sweep      int
	At         sim.Time
	Names      []string
	Values     []V
}

// RunSummary is one run's scalar summary metrics.
type RunSummary = Columns[float64]

// RunCounters is one run's telemetry snapshot.
type RunCounters = Columns[uint64]

// Map returns the columns as a name → value map, for callers that merge
// rows or marshal them as a JSON object.
func (c Columns[V]) Map() map[string]V {
	m := make(map[string]V, len(c.Names))
	for i, name := range c.Names {
		m[name] = c.Values[i]
	}
	return m
}

// Counters streams matching telemetry snapshots in run order.
func (r *Reader) Counters(q Query, fn func(RunCounters) error) error {
	return scanColumns(r, KindCounters, q, fn)
}

// Summaries streams matching run summaries in run order.
func (r *Reader) Summaries(q Query, fn func(RunSummary) error) error {
	return scanColumns(r, KindSummary, q, fn)
}

// scanColumns streams the matching blocks of one named-scalar kind, each
// decoded against the row before it so a sweep's rows share their names.
func scanColumns[V scalar](r *Reader, kind Kind, q Query, fn func(Columns[V]) error) error {
	var prev Columns[V]
	return r.scan(kind, q, func(s *slot, raw []byte) error {
		rc, err := decodeColumnsBlock(raw, int(s.rows), prev)
		if err != nil {
			return err
		}
		prev = rc
		if q.Experiment != "" && rc.Experiment != q.Experiment {
			return nil
		}
		rc.Sweep, rc.At = int(s.sweep), s.tMin
		return fn(rc)
	})
}

// TraceChunk is one delivered run of trace events after row filtering.
type TraceChunk struct {
	Experiment string
	Sweep      int
	Events     []trace.Event
}

// Trace streams matching flight-recorder events in run order (within a
// run: chronological). Kind/detail substring filtering is left to the
// caller (trace.SelectEvents); the store filters what its index knows:
// experiment, sweep, component, window.
func (r *Reader) Trace(q Query, fn func(TraceChunk) error) error {
	return r.scan(KindTrace, q, func(s *slot, raw []byte) error {
		exp, events, err := decodeTraceBlock(raw, int(s.rows))
		if err != nil {
			return err
		}
		if q.Experiment != "" && exp != q.Experiment {
			return nil
		}
		out := events[:0]
		for i := range events {
			if !q.inWindow(events[i].T) {
				continue
			}
			if q.Component != "" && events[i].Component != q.Component {
				continue
			}
			out = append(out, events[i])
		}
		if len(out) == 0 {
			return nil
		}
		return fn(TraceChunk{Experiment: exp, Sweep: int(s.sweep), Events: out})
	})
}
