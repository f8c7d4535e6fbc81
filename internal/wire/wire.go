// Package wire is the shared binary encoding layer of the durability
// subsystem: a little-endian, length-prefixed codec whose decoder never
// trusts the input. Every length field is validated against the bytes that
// remain before it sizes an allocation, every read is bounds-checked, and
// the first malformed field poisons the decoder so callers can run a whole
// decode and check the error once at the end. The checkpoint formats
// (engine snapshots, estimator state, the checkpoint file container) are
// all built on it.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt is returned for any malformed encoding: truncated input,
// implausible length fields, or trailing bytes.
var ErrCorrupt = errors.New("wire: corrupt encoding")

// Encoder appends primitive values to a growing buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Raw appends bytes verbatim, without a length prefix (magic strings).
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends an int64 as its two's-complement uint64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 by its IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends a string with a u32 length prefix.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a byte slice with a u32 length prefix.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder reads primitive values back out of a buffer. The first failed
// read sets a sticky error; subsequent reads return zero values, so callers
// may decode an entire structure and inspect Err once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Done returns the sticky error, or ErrCorrupt when input remains after a
// complete decode.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

// Failf records a caller-detected validation failure (wrapping ErrCorrupt)
// without aborting control flow, mirroring the decoder's own sticky errors.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Magic consumes the expected magic bytes, failing the decode on mismatch.
func (d *Decoder) Magic(magic string) {
	if d.err != nil || d.off+len(magic) > len(d.buf) || string(d.buf[d.off:d.off+len(magic)]) != magic {
		d.fail()
		return
	}
	d.off += len(magic)
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool, rejecting encodings other than 0 and 1.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail()
		return false
	}
}

// Str reads a length-prefixed string of at most maxLen bytes. The length is
// checked against both maxLen and the remaining input before allocating.
func (d *Decoder) Str(maxLen int) string {
	n := int(d.U32())
	if d.err != nil || n < 0 || n > maxLen || n > d.Remaining() {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Blob reads a length-prefixed byte slice of at most maxLen bytes; the
// returned slice aliases the input buffer.
func (d *Decoder) Blob(maxLen int) []byte {
	n := int(d.U32())
	if d.err != nil || n < 0 || n > maxLen || n > d.Remaining() {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Raw reads n bytes with no length prefix; the returned slice aliases the
// input buffer.
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil || n < 0 || n > d.Remaining() {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Count reads a u32 element count and validates it against the remaining
// input, given that each element occupies at least minElemSize encoded
// bytes. This is the guard that keeps a corrupt count from sizing a huge
// allocation.
func (d *Decoder) Count(minElemSize int) int {
	n := int(d.U32())
	if minElemSize < 1 {
		minElemSize = 1
	}
	if d.err != nil || n < 0 || n > d.Remaining()/minElemSize {
		d.fail()
		return 0
	}
	return n
}
