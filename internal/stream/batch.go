package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"strings"
)

// In-memory batch decoding (DESIGN.md §11). Every reader of the binary
// format — the server's ingest payloads, which arrive as complete streams in
// one frame buffer, and BinaryReader's refill window over a file — decodes
// a slice with the functions here: one pass validates the record structure,
// one string conversion covers every record's bytes, and the fields slice
// into it, so a batch costs one allocation in a recycled RecordArena
// independent of its tuple count.

// BinaryHeader returns the encoded binary-format header for schema,
// exactly as BinaryWriter emits it. A server that compares an ingest
// payload's prefix against this (bytes.HasPrefix) has verified the batch
// schema without parsing: the encoding is canonical, so equal headers and
// equal schemas coincide.
func BinaryHeader(schema *Schema) []byte { return AppendBinaryHeader(nil, schema) }

// AppendBinaryHeader appends BinaryHeader(schema) to dst.
func AppendBinaryHeader(dst []byte, schema *Schema) []byte {
	dst = append(dst, binaryMagic...)
	dst = binary.AppendUvarint(dst, uint64(schema.Len()))
	for _, name := range schema.names {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
	}
	return dst
}

// Header limits: a header outside them is corrupt, not a large schema.
const (
	maxBinaryAttrs   = 4096
	maxBinaryNameLen = 1 << 16
)

var errShortHeader = fmt.Errorf("stream: binary header: %w", io.ErrUnexpectedEOF)

// ParseBinaryHeader parses the header at the start of data and returns its
// schema and the header's length; the records start at data[n:]. A header
// cut short by the end of data is reported as io.ErrUnexpectedEOF (wrapped),
// so a reader over a stream knows to read more. Length prefixes need not be
// minimal.
func ParseBinaryHeader(data []byte) (*Schema, int, error) {
	if len(data) < len(binaryMagic) {
		if binaryMagic[:len(data)] == string(data) {
			return nil, 0, errShortHeader
		}
		return nil, 0, errors.New("stream: not a binary stream file")
	}
	if string(data[:len(binaryMagic)]) != binaryMagic {
		return nil, 0, errors.New("stream: not a binary stream file")
	}
	off := len(binaryMagic)
	// length reads one uvarint, or reports why it cannot.
	length := func() (uint64, error) {
		if off == len(data) {
			return 0, errShortHeader
		}
		v, w := uvarint(data, off)
		if w == 0 {
			return 0, errShortHeader
		}
		if w < 0 {
			return 0, errors.New("stream: binary header: bad length")
		}
		off += w
		return v, nil
	}
	n, err := length()
	if err != nil {
		return nil, 0, err
	}
	if n == 0 || n > maxBinaryAttrs {
		return nil, 0, fmt.Errorf("stream: implausible attribute count %d", n)
	}
	names := make([]string, n)
	for i := range names {
		v, err := length()
		if err != nil {
			return nil, 0, err
		}
		if v > maxBinaryNameLen {
			return nil, 0, fmt.Errorf("stream: binary header: value length %d exceeds limit", v)
		}
		if uint64(len(data)-off) < v {
			return nil, 0, errShortHeader
		}
		names[i] = string(data[off : off+int(v)])
		off += int(v)
	}
	schema, err := NewSchema(names...)
	if err != nil {
		return nil, 0, fmt.Errorf("stream: bad binary header: %w", err)
	}
	return schema, off, nil
}

// Append-style encoding: the bytes of a binary stream written straight into
// a caller-owned slice. CheckTuple is the admission rule, AppendBinaryRecord
// the unchecked record append, EncodeBinaryBatch the two composed into a
// whole stream; BinaryWriter is the same appends behind a bufio.Writer.

// CheckTuple reports why t cannot be encoded: an arity other than the
// schema's, or a value carrying the reserved key separator. A tuple that
// passes encodes with AppendBinaryRecord.
func CheckTuple(t Tuple, arity int) error {
	if len(t) != arity {
		return fmt.Errorf("tuple arity %d does not match schema arity %d", len(t), arity)
	}
	for _, v := range t {
		if strings.IndexByte(v, KeySep) >= 0 {
			return fmt.Errorf("value %q contains the reserved key separator", v)
		}
	}
	return nil
}

// AppendBinaryRecord appends t's record — every value length-prefixed, in
// order — to dst. It does not validate; callers admit t with CheckTuple.
func AppendBinaryRecord(dst []byte, t Tuple) []byte {
	for _, v := range t {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// EncodeBinaryBatch returns a complete binary stream — header, then one
// record per tuple — byte-identical to a BinaryWriter fed the same tuples
// and flushed, in one exactly-sized allocation. Every tuple is checked
// before anything is written; the refusal names the first bad tuple.
func EncodeBinaryBatch(schema *Schema, tuples []Tuple) ([]byte, error) {
	size := len(binaryMagic) + uvarintLen(uint64(schema.Len()))
	for _, name := range schema.names {
		size += uvarintLen(uint64(len(name))) + len(name)
	}
	for i, t := range tuples {
		if err := CheckTuple(t, schema.Len()); err != nil {
			return nil, fmt.Errorf("stream: tuple %d of %d: %w", i, len(tuples), err)
		}
		for _, v := range t {
			size += uvarintLen(uint64(len(v))) + len(v)
		}
	}
	dst := AppendBinaryHeader(make([]byte, 0, size), schema)
	for _, t := range tuples {
		dst = AppendBinaryRecord(dst, t)
	}
	return dst, nil
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// maxBatchValueLen bounds one decoded value.
const maxBatchValueLen = 1 << 24

// RecordArena holds the reusable backing slices of one decoded batch: the
// flat field array and the tuple headers. An arena-backed decode reuses
// their capacity across batches, so a recycled arena's steady-state cost is
// a single allocation per batch — the record-region string conversion,
// which cannot be pooled because the decoded field strings alias it and
// escape into the estimators' key comparisons. The caller owns the arena
// and must not decode into it again while any tuple from the previous
// decode is still reachable.
type RecordArena struct {
	flat   []string
	tuples []Tuple
}

// Reset drops the arena's references into the last decoded batch without
// releasing the backing capacity, so a pooled arena does not pin the
// record strings of whatever batch it last carried.
func (ar *RecordArena) Reset() {
	clear(ar.flat)
	clear(ar.tuples)
	ar.flat = ar.flat[:0]
	ar.tuples = ar.tuples[:0]
}

// DecodeBinaryRecords decodes the record region of a binary batch — the
// bytes following the header, e.g. payload[len(BinaryHeader(schema)):] —
// into tuples of the given arity, materializing the field and tuple slices
// in the arena's reused capacity. maxTuples bounds the batch; exceeding it
// is an error, not a truncation, matching the server's batch-size policy.
//
// Every field string points into a single string conversion of the record
// region, so the returned tuples are immutable and do not alias data. They
// remain valid until the next decode into (or Reset of) this arena.
func (ar *RecordArena) DecodeBinaryRecords(data []byte, arity, maxTuples int) ([]Tuple, error) {
	// Pass 1: structure only, so a malformed batch is rejected before any
	// allocation is sized from its contents.
	count, _, err := scanBinaryRecords(data, arity, false, false)
	if err != nil {
		return nil, err
	}
	if count > maxTuples {
		return nil, fmt.Errorf("stream: batch exceeds %d tuples", maxTuples)
	}
	return ar.decode(data, arity, count), nil
}

// ValidateBinaryRecords checks a record region without decoding it and
// returns the number of tuples it holds. On top of the structural checks of
// DecodeBinaryRecords it admits only bytes a BinaryWriter emits: no value
// carries the reserved key separator, and every length prefix is minimal.
// A region that passes can therefore be walked with RecordSpans and
// re-framed record by record — the coordinator's router does — and the
// result is byte-identical to decoding it and encoding the tuples again.
func ValidateBinaryRecords(data []byte, arity int) (int, error) {
	count, _, err := scanBinaryRecords(data, arity, true, false)
	return count, err
}

// recordError is a decode failure inside a record region: the byte offset
// of the failing value and the number of complete tuples before it.
type recordError struct {
	off, tuple int64
	err        error
}

func (e *recordError) Error() string {
	return fmt.Sprintf("stream: binary record at byte offset %d (after tuple %d): %v", e.off, e.tuple, e.err)
}

func (e *recordError) Unwrap() error { return e.err }

func recordErr(off, tuple int, err error) error {
	return &recordError{off: int64(off), tuple: int64(tuple), err: err}
}

// scanBinaryRecords validates the uvarint/length structure of a record
// region and returns the number of complete records and the offset where
// they end. No bytes are copied. strict additionally refuses what no
// BinaryWriter emits: an over-long length prefix, and KeySep inside a value
// (never inside a prefix: a 31-byte value's prefix is the same byte).
// partial treats a record cut short by the end of data as the end of the
// complete prefix rather than an error — what a reader over a stream window
// needs. On any failure the complete prefix before it is still reported.
func scanBinaryRecords(data []byte, arity int, strict, partial bool) (count, end int, err error) {
	if arity < 1 {
		return 0, 0, errors.New("stream: record decode needs arity >= 1")
	}
	off, i := 0, 0 // i: the field's index in its record
	for off < len(data) {
		n, w := uvarint(data, off)
		if w <= 0 {
			if w == 0 && partial {
				return count, end, nil
			}
			return count, end, recordErr(off, count, errors.New("bad value length"))
		}
		if n > maxBatchValueLen {
			return count, end, recordErr(off, count, fmt.Errorf("value length %d exceeds limit", n))
		}
		if uint64(len(data)-off-w) < n {
			if partial {
				return count, end, nil
			}
			return count, end, recordErr(off, count, errors.New("truncated value"))
		}
		if strict && w > 1 && w != uvarintLen(n) {
			return count, end, recordErr(off, count, fmt.Errorf("value length %d in a %d-byte prefix", n, w))
		}
		off += w
		if strict && bytes.IndexByte(data[off:off+int(n)], KeySep) >= 0 {
			return count, end, recordErr(off, count, fmt.Errorf("value %q contains the reserved key separator", data[off:off+int(n)]))
		}
		off += int(n)
		if i++; i == arity {
			i, count, end = 0, count+1, off
		}
	}
	if i != 0 && !partial {
		return count, end, fmt.Errorf("stream: binary batch ends mid-record (%d fields, arity %d)", count*arity+i, arity)
	}
	return count, end, nil
}

// uvarint is binary.Uvarint(data[off:]) with the one-byte case — every
// value shorter than 128 bytes — decided inline.
func uvarint(data []byte, off int) (uint64, int) {
	if b := data[off]; b < 0x80 {
		return uint64(b), 1
	}
	return binary.Uvarint(data[off:])
}

// Span is the extent of one value inside a record region: data[Off:End].
type Span struct{ Off, End int }

// RecordSpans locates the values of the record that starts at data[off],
// one per element of spans, and returns the offset just past the record.
// The region must have passed ValidateBinaryRecords for len(spans)-ary
// records; RecordSpans does not re-check it.
func RecordSpans(data []byte, off int, spans []Span) int {
	for i := range spans {
		n, w := uvarint(data, off)
		off += w
		spans[i] = Span{Off: off, End: off + int(n)}
		off += int(n)
	}
	return off
}

// decode materializes count records of a region scanBinaryRecords accepted
// in the arena: one conversion covers every record's bytes (the interleaved
// length prefixes ride along — a few percent of slack for zero compaction
// work), and the fields slice into it.
func (ar *RecordArena) decode(data []byte, arity, count int) []Tuple {
	if count == 0 {
		return nil
	}
	fields := count * arity
	rec := string(data)
	if cap(ar.flat) < fields {
		ar.flat = make([]string, fields)
	}
	if cap(ar.tuples) < count {
		ar.tuples = make([]Tuple, count)
	}
	flat, tuples := ar.flat[:fields], ar.tuples[:count]
	ar.flat, ar.tuples = flat, tuples
	off := 0
	for i := range flat {
		n, w := uvarint(data, off)
		off += w
		flat[i] = rec[off : off+int(n)]
		off += int(n)
	}
	for i := range tuples {
		tuples[i] = Tuple(flat[i*arity : (i+1)*arity : (i+1)*arity])
	}
	return tuples
}
