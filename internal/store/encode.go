package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/sim"
)

// Columnar primitives shared by every block payload: LEB128 varints for
// counts and IDs, zigzag varints for signed deltas, delta-of-delta
// timestamps (a fixed-cadence sampler costs ~1 byte per row after the first
// two), and XOR-with-previous float columns (repeated or slowly drifting
// values share high bits, so the varint of the XOR is short).

// appendStr appends a length-prefixed string.
func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// timeEncoder emits a delta-of-delta timestamp column.
type timeEncoder struct {
	n         int
	prev      int64
	prevDelta int64
}

func (e *timeEncoder) append(b []byte, t sim.Time) []byte {
	v := int64(t)
	switch e.n {
	case 0:
		b = binary.AppendVarint(b, v)
	case 1:
		e.prevDelta = v - e.prev
		b = binary.AppendVarint(b, e.prevDelta)
	default:
		d := v - e.prev
		b = binary.AppendVarint(b, d-e.prevDelta)
		e.prevDelta = d
	}
	e.prev = v
	e.n++
	return b
}

// floatEncoder emits an XOR-with-previous float column.
type floatEncoder struct {
	prev uint64
}

func (e *floatEncoder) append(b []byte, v float64) []byte {
	bits := math.Float64bits(v)
	b = binary.AppendUvarint(b, bits^e.prev)
	e.prev = bits
	return b
}

// cursor is the decode side: a byte reader whose first failure sticks, so
// decode loops stay linear and check err once at the end. Every read is
// bounds-checked — a corrupt (but CRC-valid, e.g. truncated-at-write)
// payload surfaces as an error, never a panic.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("store: corrupt block payload: %s at offset %d", what, c.off)
	}
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail("bad uvarint")
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail("bad varint")
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) str() string { return string(c.bytes()) }

// bytes returns the next length-prefixed string's bytes in place.
func (c *cursor) bytes() []byte {
	n := c.uvarint()
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.b)-c.off) {
		c.fail("string length past end")
		return nil
	}
	b := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

func (c *cursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.fail("byte past end")
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

// timeDecoder mirrors timeEncoder.
type timeDecoder struct {
	n         int
	prev      int64
	prevDelta int64
}

func (d *timeDecoder) next(c *cursor) sim.Time {
	v := c.varint()
	switch d.n {
	case 0:
		d.prev = v
	case 1:
		d.prevDelta = v
		d.prev += v
	default:
		d.prevDelta += v
		d.prev += d.prevDelta
	}
	d.n++
	return sim.Time(d.prev)
}

// floatDecoder mirrors floatEncoder.
type floatDecoder struct {
	prev uint64
}

func (d *floatDecoder) next(c *cursor) float64 {
	d.prev ^= c.uvarint()
	return math.Float64frombits(d.prev)
}
