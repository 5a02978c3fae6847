// Package store is phantomdb: an append-only, block-compressed, columnar
// on-disk results store for simulation campaigns. It persists the three
// observability products of a run — metric series, telemetry counter
// snapshots, and flight-recorder trace events — plus the run's scalar
// summary metrics, at a scale where "one JSON file per experiment" stops
// working (10⁵–10⁶ run parameter sweeps).
//
// # File format
//
// A campaign is a directory of phantomdb-NNNNN.pdb files. Each file is:
//
//	header      64 bytes   magic "PDB1", version, slot count, used slots,
//	                       sealed marker
//	index       512 × 64B  fixed-size block index slots (written at seal)
//	blocks      ...        compressed columnar payloads, append-only
//
// Every block holds rows of exactly one kind (series points, counter
// values, trace events, summary metrics) belonging to exactly one run
// (experiment, sweep). Its index slot carries everything a query needs to
// decide relevance without touching the block: the kind, the 64-bit FNV-1a
// hashes of the experiment label and the series name / trace component, the
// sweep index, the row count, and the [tMin, tMax] timestamp range. A query
// for one experiment and time window therefore rejects non-matching blocks
// from their slots — no read, no decompression, no parse. When a file's
// index loads, the reader also folds its slots into one zone map per block
// kind (slot count and time range), and a query whose window misses the
// zone skips the whole file without walking its slots — when runs occupy
// separate stretches of simulated time. That is what makes post-hoc
// analysis of a million-run campaign tractable.
//
// Block payloads are columnar: timestamps are delta-of-delta zigzag
// varints (a fixed-cadence sampler costs ~1 byte per row), float values are
// XOR-with-previous varints of their IEEE bits, and strings live in a
// per-block dictionary so blocks stay self-contained and independently
// decodable. Each block is compressed independently (stdlib flate, or none
// — pluggable per Options) and protected by a CRC-32 of its on-disk bytes,
// verified on every read.
//
// # Determinism
//
// The writer makes on-disk bytes a pure function of the committed content
// and commit order, never of scheduling: fleet workers encode and compress
// their own segments in parallel (the expensive half), and Commit serializes
// them to disk strictly in job-index order through an in-order commit
// window. N workers therefore produce byte-identical files to 1 worker —
// the property the concurrent-writer determinism test pins. Within a
// segment, rows are already (time, seq)-ordered because the engine fires
// events in that order; across segments, order is the caller's job order,
// which the fleet constructs sorted by (experiment, sweep).
package store

import (
	"fmt"

	"repro/internal/sim"
)

// Magic identifies a phantomdb file; Version is the format revision.
const (
	Magic   = "PDB1"
	Version = 1
)

// Defaults for Options zero values.
const (
	// DefaultSlotsPerFile is the fixed index size: a file holds at most
	// this many blocks, then the writer seals it and rolls to the next.
	DefaultSlotsPerFile = 512
	// DefaultBlockRows caps rows per block so a time-window query inside
	// one long series can still skip non-overlapping chunks.
	DefaultBlockRows = 4096
)

// Kind discriminates what a block's rows are.
type Kind uint8

const (
	// KindSeries blocks hold (timestamp, float64) points of one named
	// series of one run.
	KindSeries Kind = 1
	// KindCounters blocks hold one run's telemetry snapshot: (name,
	// uint64) pairs, timestamped at the run's end.
	KindCounters Kind = 2
	// KindTrace blocks hold flight-recorder events (time, component,
	// kind, typed fields).
	KindTrace Kind = 3
	// KindSummary blocks hold one run's scalar summary metrics: (name,
	// float64) pairs, timestamped at the run's end.
	KindSummary Kind = 4
)

// String names the kind for errors and reports.
func (k Kind) String() string {
	switch k {
	case KindSeries:
		return "series"
	case KindCounters:
		return "counters"
	case KindTrace:
		return "trace"
	case KindSummary:
		return "summary"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Compression selects the per-block codec. The zero value means "writer
// default" (flate); on disk every slot records the resolved codec, so files
// written under different options mix freely in one campaign directory.
type Compression uint8

const (
	// CompressionDefault resolves to flate at write time.
	CompressionDefault Compression = 0
	// CompressionNone stores raw payload bytes (fastest ingest; CRC still
	// applies).
	CompressionNone Compression = 1
	// CompressionFlate compresses each block with stdlib flate at
	// BestSpeed. The level is fixed so that output bytes depend only on
	// content, keeping the worker-count determinism contract.
	CompressionFlate Compression = 2
)

// Options tune a campaign writer. The zero value is ready to use.
type Options struct {
	// Compression is the per-block codec (default flate).
	Compression Compression
	// BlockRows caps rows per block (default DefaultBlockRows).
	BlockRows int
	// SlotsPerFile is the fixed index size per file (default
	// DefaultSlotsPerFile).
	SlotsPerFile int
}

// resolved returns o with defaults applied.
func (o Options) resolved() Options {
	if o.Compression == CompressionDefault {
		o.Compression = CompressionFlate
	}
	if o.BlockRows <= 0 {
		o.BlockRows = DefaultBlockRows
	}
	if o.SlotsPerFile <= 0 {
		o.SlotsPerFile = DefaultSlotsPerFile
	}
	return o
}

// RunMeta identifies the run a segment belongs to. Experiment and Sweep are
// the columnar keys every block of the segment is indexed under; End is the
// run's final simulated time, the timestamp of its counters and summary.
type RunMeta struct {
	Experiment string
	Sweep      int
	End        sim.Time
}

// hashStr is 64-bit FNV-1a: the index's fixed-size stand-in for a string
// key. A slot stores hashes, not dictionary IDs, so workers can encode
// blocks in parallel without coordinating a shared string table; hashes are
// a skip filter (never a false negative), and the reader re-checks the
// exact strings from the block's own dictionary after decompression.
func hashStr(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
