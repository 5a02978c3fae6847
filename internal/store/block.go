package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// headerSize is the fixed file header; slotSize is one index slot. The
// index region of a file is headerSize + slotsPerFile*slotSize bytes,
// reserved at creation and finalized when the file seals.
const (
	headerSize = 64
	slotSize   = 64
)

// slot is one block's index entry: everything a query needs to accept or
// reject the block without reading it.
//
// On-disk layout (little-endian, 64 bytes):
//
//	 0  kind u8 | comp u8 | pad u16 | rows u32
//	 8  expHash u64
//	16  nameHash u64   (series name / single-component trace; 0 = none/mixed)
//	24  sweep u32 | crc u32
//	32  tMin i64
//	40  tMax i64
//	48  off u64
//	56  encLen u32 | rawLen u32
type slot struct {
	kind     Kind
	comp     Compression
	rows     uint32
	expHash  uint64
	nameHash uint64
	sweep    uint32
	crc      uint32
	tMin     sim.Time
	tMax     sim.Time
	off      uint64
	encLen   uint32
	rawLen   uint32
}

func (s *slot) marshal(b []byte) {
	_ = b[slotSize-1]
	b[0] = byte(s.kind)
	b[1] = byte(s.comp)
	b[2], b[3] = 0, 0
	binary.LittleEndian.PutUint32(b[4:], s.rows)
	binary.LittleEndian.PutUint64(b[8:], s.expHash)
	binary.LittleEndian.PutUint64(b[16:], s.nameHash)
	binary.LittleEndian.PutUint32(b[24:], s.sweep)
	binary.LittleEndian.PutUint32(b[28:], s.crc)
	binary.LittleEndian.PutUint64(b[32:], uint64(s.tMin))
	binary.LittleEndian.PutUint64(b[40:], uint64(s.tMax))
	binary.LittleEndian.PutUint64(b[48:], s.off)
	binary.LittleEndian.PutUint32(b[56:], s.encLen)
	binary.LittleEndian.PutUint32(b[60:], s.rawLen)
}

func (s *slot) unmarshal(b []byte) {
	_ = b[slotSize-1]
	s.kind = Kind(b[0])
	s.comp = Compression(b[1])
	s.rows = binary.LittleEndian.Uint32(b[4:])
	s.expHash = binary.LittleEndian.Uint64(b[8:])
	s.nameHash = binary.LittleEndian.Uint64(b[16:])
	s.sweep = binary.LittleEndian.Uint32(b[24:])
	s.crc = binary.LittleEndian.Uint32(b[28:])
	s.tMin = sim.Time(binary.LittleEndian.Uint64(b[32:]))
	s.tMax = sim.Time(binary.LittleEndian.Uint64(b[40:]))
	s.off = binary.LittleEndian.Uint64(b[48:])
	s.encLen = binary.LittleEndian.Uint32(b[56:])
	s.rawLen = binary.LittleEndian.Uint32(b[60:])
}

// flateWriters recycles flate compressors: construction builds large match
// tables, so a million-block ingest must not pay it per block.
var flateWriters = sync.Pool{New: func() any {
	w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		panic(err) // BestSpeed is a valid level; cannot happen
	}
	return w
}}

// flateReaders recycles decompressors through the flate.Resetter interface;
// a scan holds one for its duration.
var flateReaders = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil))
}}

// compress encodes raw under comp. The flate level is fixed (BestSpeed) so
// output bytes are a pure function of input bytes.
func compress(comp Compression, raw []byte) ([]byte, error) {
	switch comp {
	case CompressionNone:
		return raw, nil
	case CompressionFlate:
		var buf bytes.Buffer
		fw := flateWriters.Get().(*flate.Writer)
		fw.Reset(&buf)
		if _, err := fw.Write(raw); err != nil {
			flateWriters.Put(fw)
			return nil, err
		}
		if err := fw.Close(); err != nil {
			flateWriters.Put(fw)
			return nil, err
		}
		flateWriters.Put(fw)
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("store: unknown compression %d", comp)
}

// encBlock is a sealed block: on-disk bytes plus its index slot (offset
// unresolved until the writer places it in a file).
type encBlock struct {
	s    slot
	data []byte
}

// seal compresses raw, checksums it and fills the size/CRC slot fields.
func seal(s slot, comp Compression, raw []byte) (encBlock, error) {
	enc, err := compress(comp, raw)
	if err != nil {
		return encBlock{}, err
	}
	s.comp = comp
	s.rawLen = uint32(len(raw))
	s.encLen = uint32(len(enc))
	s.crc = crc32.ChecksumIEEE(enc)
	return encBlock{s: s, data: enc}, nil
}

// --- payload encoders -------------------------------------------------
//
// Every payload opens with the experiment label so blocks are
// self-describing: the slot's hashes are a skip filter, the payload is the
// truth the reader re-verifies after decompression.

// encodeSeriesBlock lays out one chunk of a named series.
func encodeSeriesBlock(meta RunMeta, name string, pts []metrics.Point) []byte {
	b := appendStr(nil, meta.Experiment)
	b = appendStr(b, name)
	var te timeEncoder
	for _, p := range pts {
		b = te.append(b, p.T)
	}
	var fe floatEncoder
	for _, p := range pts {
		b = fe.append(b, p.V)
	}
	return b
}

func decodeSeriesBlock(raw []byte, rows int) (exp, name string, pts []metrics.Point, err error) {
	c := &cursor{b: raw}
	exp = c.str()
	name = c.str()
	pts = make([]metrics.Point, rows)
	var td timeDecoder
	for i := range pts {
		pts[i].T = td.next(c)
	}
	var fd floatDecoder
	for i := range pts {
		pts[i].V = fd.next(c)
	}
	return exp, name, pts, c.err
}

// encodeColumnsBlock lays out a run's named scalars: a name column in the
// given (sorted) order, so bytes do not depend on map iteration, then a
// value column — XOR-encoded floats for a summary, uvarints for counters.
func encodeColumnsBlock[V scalar](meta RunMeta, names []string, m map[string]V) []byte {
	b := appendStr(nil, meta.Experiment)
	for _, n := range names {
		b = appendStr(b, n)
	}
	switch m := any(m).(type) {
	case map[string]float64:
		var fe floatEncoder
		for _, n := range names {
			b = fe.append(b, m[n])
		}
	case map[string]uint64:
		for _, n := range names {
			b = binary.AppendUvarint(b, m[n])
		}
	}
	return b
}

// decodeColumnsBlock decodes a summary or counters block into its columns.
// The names must be strictly increasing — the order the segment writes
// them in, and the key order of a JSON row. prev is the row decoded before
// this one: an experiment label or name column with the same bytes reuses
// prev's string or slice, so a sweep's rows share one name column. A Names
// slice once returned is never written again.
func decodeColumnsBlock[V scalar](raw []byte, rows int, prev Columns[V]) (Columns[V], error) {
	c := &cursor{b: raw}
	rc := Columns[V]{Experiment: prev.Experiment, Names: prev.Names}
	if exp := c.bytes(); string(exp) != rc.Experiment {
		rc.Experiment = string(exp)
	}
	shared := len(rc.Names) == rows
	if !shared {
		rc.Names = make([]string, rows)
	}
	for i := 0; i < rows && c.err == nil; i++ {
		b := c.bytes()
		switch {
		case i > 0 && string(b) <= rc.Names[i-1]:
			c.fail("names not strictly increasing")
		case shared && string(b) == rc.Names[i]:
		default:
			if shared {
				shared = false
				fresh := make([]string, rows)
				copy(fresh, rc.Names[:i])
				rc.Names = fresh
			}
			rc.Names[i] = string(b)
		}
	}
	rc.Values = make([]V, rows)
	switch vs := any(rc.Values).(type) {
	case []float64:
		var fd floatDecoder
		for i := range vs {
			vs[i] = fd.next(c)
		}
	case []uint64:
		for i := range vs {
			vs[i] = c.uvarint()
		}
	}
	return rc, c.err
}

// field type tags inside trace blocks.
const (
	ftNone  = 0
	ftInt   = 1
	ftFloat = 2
	ftStr   = 3
)

// encodeTraceBlock lays out flight-recorder events: a per-block string
// dictionary (components, kinds, field keys, field string values, IDs in
// first-appearance order — deterministic because event order is), then
// time / component / kind / field-count columns, then per-row typed fields.
// The block's events arrive as consecutive runs (a wrapped recorder ring is
// two) and are read in place: one pass fills the dictionary and the five
// columns side by side, and the columns are laid end to end after it.
func encodeTraceBlock(meta RunMeta, runs [][]trace.Event) []byte {
	ids := map[string]uint64{}
	var dict []string
	intern := func(s string) uint64 {
		if id, ok := ids[s]; ok {
			return id
		}
		id := uint64(len(dict))
		ids[s] = id
		dict = append(dict, s)
		return id
	}
	var times, comps, kinds, counts, fields []byte
	var te timeEncoder
	for _, events := range runs {
		for i := range events {
			e := &events[i]
			times = te.append(times, e.T)
			comps = binary.AppendUvarint(comps, intern(e.Component))
			kinds = binary.AppendUvarint(kinds, intern(e.Kind))
			fs := e.Fields()
			counts = append(counts, byte(len(fs)))
			for _, f := range fs {
				fields = binary.AppendUvarint(fields, intern(f.Key))
				switch f.Kind() {
				case trace.FieldInt:
					fields = append(fields, ftInt)
					fields = binary.AppendVarint(fields, f.Int())
				case trace.FieldFloat:
					fields = append(fields, ftFloat)
					fields = binary.AppendUvarint(fields, math.Float64bits(f.Float()))
				case trace.FieldStr:
					fields = append(fields, ftStr)
					fields = binary.AppendUvarint(fields, intern(f.Str()))
				default:
					fields = append(fields, ftNone)
				}
			}
		}
	}

	b := appendStr(nil, meta.Experiment)
	b = binary.AppendUvarint(b, uint64(len(dict)))
	for _, s := range dict {
		b = appendStr(b, s)
	}
	for _, col := range [...][]byte{times, comps, kinds, counts, fields} {
		b = append(b, col...)
	}
	return b
}

func decodeTraceBlock(raw []byte, rows int) (exp string, events []trace.Event, err error) {
	c := &cursor{b: raw}
	exp = c.str()
	n := c.uvarint()
	if c.err != nil {
		return exp, nil, c.err
	}
	if n > uint64(len(raw)) {
		return exp, nil, fmt.Errorf("store: corrupt block payload: dictionary of %d entries", n)
	}
	dict := make([]string, n)
	for i := range dict {
		dict[i] = c.str()
	}
	lookup := func(id uint64) string {
		if id >= uint64(len(dict)) {
			c.fail("dictionary id out of range")
			return ""
		}
		return dict[id]
	}
	ts := make([]sim.Time, rows)
	var td timeDecoder
	for i := range ts {
		ts[i] = td.next(c)
	}
	comps := make([]string, rows)
	for i := range comps {
		comps[i] = lookup(c.uvarint())
	}
	kinds := make([]string, rows)
	for i := range kinds {
		kinds[i] = lookup(c.uvarint())
	}
	nf := make([]byte, rows)
	for i := range nf {
		nf[i] = c.byte()
		if nf[i] > trace.MaxFields {
			c.fail("field count out of range")
		}
	}
	if c.err != nil {
		return exp, nil, c.err
	}
	events = make([]trace.Event, rows)
	var fields [trace.MaxFields]trace.Field
	for i := 0; i < rows; i++ {
		for j := 0; j < int(nf[i]); j++ {
			key := lookup(c.uvarint())
			switch c.byte() {
			case ftInt:
				fields[j] = trace.I(key, c.varint())
			case ftFloat:
				fields[j] = trace.F(key, math.Float64frombits(c.uvarint()))
			case ftStr:
				fields[j] = trace.S(key, lookup(c.uvarint()))
			default:
				fields[j] = trace.Field{Key: key}
			}
		}
		events[i] = trace.NewEvent(ts[i], comps[i], kinds[i], fields[:nf[i]]...)
	}
	return exp, events, c.err
}

// sortedKeys returns the map's keys sorted — block row order must not
// depend on Go's map iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
