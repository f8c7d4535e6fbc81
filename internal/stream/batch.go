package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
)

// In-memory batch decoding (DESIGN.md §11). The server's ingest payloads
// arrive as complete binary streams already sitting in one frame buffer;
// running them through BinaryReader costs a 64 KiB bufio allocation plus a
// string allocation per tuple. The functions here decode straight from the
// payload slice instead: the whole batch materializes with three heap
// allocations — one string conversion covering every record's bytes, one
// flat field array, one tuple slice — independent of the tuple count.

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

// Append-style encoding: the same bytes BinaryWriter emits, written straight
// into a caller-owned slice with no bufio.Writer in between. CheckTuple is
// the writer's admission rule, AppendBinaryRecord the unchecked record
// append, AppendBinaryBatch the two composed into a whole stream.

// CheckTuple reports the error BinaryWriter.Write would refuse t with: an
// arity other than the schema's, or a value carrying the reserved key
// separator. A tuple that passes encodes with AppendBinaryRecord.
func CheckTuple(t Tuple, arity int) error {
	if len(t) != arity {
		return fmt.Errorf("stream: tuple arity %d does not match schema arity %d", len(t), arity)
	}
	for _, v := range t {
		if strings.IndexByte(v, KeySep) >= 0 {
			return fmt.Errorf("stream: value %q contains the reserved key separator", v)
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
// before anything is written.
func EncodeBinaryBatch(schema *Schema, tuples []Tuple) ([]byte, error) {
	size := len(binaryMagic) + uvarintLen(uint64(schema.Len()))
	for _, name := range schema.names {
		size += uvarintLen(uint64(len(name))) + len(name)
	}
	for _, t := range tuples {
		if err := CheckTuple(t, schema.Len()); err != nil {
			return nil, err
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

// maxBatchValueLen mirrors BinaryReader's per-value bound.
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

// DecodeBinaryRecords decodes like the package-level function of the same
// name, but materializes the field and tuple slices in the arena's reused
// capacity. The returned tuples remain valid until the next decode into
// (or Reset of) this arena.
func (ar *RecordArena) DecodeBinaryRecords(data []byte, arity, maxTuples int) ([]Tuple, error) {
	return decodeBinaryRecords(data, arity, maxTuples, ar)
}

// DecodeBinaryRecords decodes the record region of a binary batch — the
// bytes following the header, e.g. payload[len(BinaryHeader(schema)):] —
// into tuples of the given arity. maxTuples bounds the batch; exceeding it
// is an error, not a truncation, matching the server's batch-size policy.
//
// Every field string points into a single string conversion of the record
// region, so the returned tuples are immutable, self-contained (they do
// not alias data), and cost O(1) allocations for the whole batch.
func DecodeBinaryRecords(data []byte, arity, maxTuples int) ([]Tuple, error) {
	return decodeBinaryRecords(data, arity, maxTuples, nil)
}

// ValidateBinaryRecords checks a record region without decoding it and
// returns the number of tuples it holds. On top of the structural checks of
// DecodeBinaryRecords it admits only bytes a BinaryWriter emits: no value
// carries the reserved key separator, and every length prefix is minimal.
// A region that passes can therefore be walked with RecordSpans and
// re-framed record by record — the coordinator's router does — and the
// result is byte-identical to decoding it and encoding the tuples again.
func ValidateBinaryRecords(data []byte, arity int) (int, error) {
	fields, err := scanBinaryRecords(data, arity, true)
	if err != nil {
		return 0, err
	}
	return fields / arity, nil
}

// scanBinaryRecords validates the uvarint/length structure of a record
// region and counts its fields. No bytes are copied; a malformed batch is
// rejected before any allocation is sized from its contents. strict
// additionally refuses what no BinaryWriter emits: an over-long length
// prefix, and KeySep inside a value (never inside a prefix: a 31-byte
// value's prefix is the same byte).
func scanBinaryRecords(data []byte, arity int, strict bool) (fields int, err error) {
	if arity < 1 {
		return 0, fmt.Errorf("stream: record decode needs arity >= 1")
	}
	off := 0
	for off < len(data) {
		n, w := uvarint(data, off)
		if w <= 0 {
			return 0, fmt.Errorf("stream: binary record at byte offset %d (after tuple %d): bad value length", off, fields/arity)
		}
		if n > maxBatchValueLen {
			return 0, fmt.Errorf("stream: binary record at byte offset %d (after tuple %d): value length %d exceeds limit", off, fields/arity, n)
		}
		if uint64(len(data)-off-w) < n {
			return 0, fmt.Errorf("stream: binary record at byte offset %d (after tuple %d): truncated value", off, fields/arity)
		}
		if strict && w > 1 && w != uvarintLen(n) {
			return 0, fmt.Errorf("stream: binary record at byte offset %d (after tuple %d): value length %d in a %d-byte prefix", off, fields/arity, n, w)
		}
		off += w
		if strict && bytes.IndexByte(data[off:off+int(n)], KeySep) >= 0 {
			return 0, fmt.Errorf("stream: binary record at byte offset %d (after tuple %d): value %q contains the reserved key separator", off, fields/arity, data[off:off+int(n)])
		}
		off += int(n)
		fields++
	}
	if fields%arity != 0 {
		return 0, fmt.Errorf("stream: binary batch ends mid-record (%d fields, arity %d)", fields, arity)
	}
	return fields, nil
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

func decodeBinaryRecords(data []byte, arity, maxTuples int, ar *RecordArena) ([]Tuple, error) {
	// Pass 1: structure only — the serving path admits what BinaryReader
	// admits.
	fields, err := scanBinaryRecords(data, arity, false)
	if err != nil {
		return nil, err
	}
	count := fields / arity
	if count > maxTuples {
		return nil, fmt.Errorf("stream: batch exceeds %d tuples", maxTuples)
	}
	if count == 0 {
		return nil, nil
	}
	// Pass 2: one conversion covers every record's bytes (the interleaved
	// length prefixes ride along — a few percent of slack for zero
	// compaction work); fields slice into it.
	rec := string(data)
	var flat []string
	var tuples []Tuple
	if ar != nil {
		if cap(ar.flat) >= fields {
			flat = ar.flat[:fields]
		} else {
			flat = make([]string, fields)
		}
		if cap(ar.tuples) >= count {
			tuples = ar.tuples[:count]
		} else {
			tuples = make([]Tuple, count)
		}
		ar.flat, ar.tuples = flat, tuples
	} else {
		flat = make([]string, fields)
		tuples = make([]Tuple, count)
	}
	off := 0
	for i := 0; i < fields; i++ {
		n, w := uvarint(data, off)
		off += w
		flat[i] = rec[off : off+int(n)]
		off += int(n)
	}
	for i := range tuples {
		tuples[i] = Tuple(flat[i*arity : (i+1)*arity : (i+1)*arity])
	}
	return tuples, nil
}
