package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Binary codec: a compact alternative to the text format for multi-million
// tuple files (impgen/impstat accept either; readers sniff the magic).
//
// Layout: the magic "IMPB\x01", a uvarint attribute count, then each
// attribute name length-prefixed; records follow as length-prefixed values
// in schema order. Values may contain any byte except that the key
// separator remains reserved for projections.

const binaryMagic = "IMPB\x01"

// BinaryWriter encodes tuples in the binary format.
type BinaryWriter struct {
	w      *bufio.Writer
	schema *Schema
	wrote  bool
	buf    []byte
}

// NewBinaryWriter returns a BinaryWriter for the schema.
func NewBinaryWriter(w io.Writer, schema *Schema) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriterSize(w, 1<<16), schema: schema}
}

// Write implements Sink.
func (w *BinaryWriter) Write(t Tuple) error {
	if err := CheckTuple(t, w.schema.Len()); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return w.write(t)
}

// Flush flushes buffered output (writing the header even for empty
// streams).
func (w *BinaryWriter) Flush() error {
	if err := w.write(nil); err != nil {
		return err
	}
	return w.w.Flush()
}

// write emits t's record, preceded by the header on the first call.
func (w *BinaryWriter) write(t Tuple) error {
	w.buf = w.buf[:0]
	if !w.wrote {
		w.wrote = true
		w.buf = AppendBinaryHeader(w.buf, w.schema)
	}
	w.buf = AppendBinaryRecord(w.buf, t)
	_, err := w.w.Write(w.buf)
	return err
}

// BatchSource is implemented by sources that can decode many tuples per
// call, amortizing per-tuple decode and dispatch overhead. NextBatch fills
// up to len(dst) tuple slots (reusing the slots' backing storage where
// possible) and returns how many it filled. It returns io.EOF — possibly
// alongside a non-zero count — when the stream is exhausted. The filled
// tuples remain valid until the next NextBatch call.
type BatchSource interface {
	Source
	NextBatch(dst []Tuple) (int, error)
}

// BinaryReader decodes tuples written by BinaryWriter. It reads its input
// into a window and decodes every complete record in the window at once
// with the slice decoder the server uses, so a window's records cost one
// string allocation between them.
type BinaryReader struct {
	r      io.Reader
	schema *Schema
	arity  int

	buf  []byte // the window; buf[off:] is not decoded yet
	off  int
	base int64 // stream offset of buf[0]
	eof  bool  // r has returned io.EOF

	arena RecordArena
	dec   []Tuple // decoded records not yet handed out
	err   error   // returned once dec is empty: io.EOF or a decode error
	pos   int64
	one   [1]Tuple // Next's slot
}

// NewBinaryReader reads the header and returns a reader positioned at the
// first tuple.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := &BinaryReader{r: r, buf: make([]byte, 0, 1<<16)}
	for {
		schema, n, err := ParseBinaryHeader(br.buf)
		if err == nil {
			br.schema, br.arity, br.off = schema, schema.Len(), n
			return br, nil
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) || br.eof {
			return nil, err
		}
		if err := br.read(); err != nil {
			return nil, fmt.Errorf("stream: binary header: %w", err)
		}
	}
}

// Schema returns the schema read from the header.
func (r *BinaryReader) Schema() *Schema { return r.schema }

// Next implements Source. The returned tuple aliases an internal buffer and
// is only valid until the next call.
func (r *BinaryReader) Next() (Tuple, error) {
	if n, err := r.NextBatch(r.one[:]); n == 0 {
		return nil, err
	}
	return r.one[0], nil
}

// NextBatch implements BatchSource: it hands out up to len(dst) decoded
// tuples, reusing each slot's field slice across calls. Tuples decoded
// before a malformed or truncated record are returned first, the error with
// them. Returns io.EOF once the stream is exhausted.
func (r *BinaryReader) NextBatch(dst []Tuple) (int, error) {
	for k := range dst {
		if len(r.dec) == 0 && !r.fill() {
			return k, r.err
		}
		// Copy the field headers out: a refill reuses the arena.
		dst[k] = append(dst[k][:0], r.dec[0]...)
		r.dec = r.dec[1:]
		r.pos++
	}
	return len(dst), nil
}

// fill decodes every complete record in the window, reading more input
// while there is none. It reports whether any record was decoded; if not,
// r.err says why.
func (r *BinaryReader) fill() bool {
	for r.err == nil {
		data := r.buf[r.off:]
		count, end, err := scanBinaryRecords(data, r.arity, false, true)
		if re, ok := err.(*recordError); ok {
			re.off += r.base + int64(r.off)
			re.tuple += r.pos
		}
		r.err = err
		if count > 0 {
			r.dec = r.arena.decode(data[:end], r.arity, count)
			r.off += end
			return true
		}
		switch {
		case r.err != nil:
		case r.eof && len(data) == 0:
			r.err = io.EOF
		case r.eof:
			r.err = &recordError{off: r.base + int64(r.off), tuple: r.pos, err: io.ErrUnexpectedEOF}
		default:
			if err := r.read(); err != nil {
				r.err = &recordError{off: r.base + int64(len(r.buf)), tuple: r.pos, err: err}
			}
		}
	}
	return false
}

// read appends more input to the window, first moving the undecoded bytes
// to its front and, when they fill it, doubling it: a window always grows
// to fit one record (at most arity × maxBatchValueLen plus prefixes, since
// the scan refuses a longer value before its bytes are waited for).
func (r *BinaryReader) read() error {
	if r.off > 0 {
		n := copy(r.buf, r.buf[r.off:])
		r.base += int64(r.off)
		r.buf, r.off = r.buf[:n], 0
	}
	if len(r.buf) == cap(r.buf) {
		r.buf = slices.Grow(r.buf, cap(r.buf))
	}
	n, err := r.r.Read(r.buf[len(r.buf):cap(r.buf)])
	r.buf = r.buf[:len(r.buf)+n]
	if err == io.EOF {
		r.eof = true
		return nil
	}
	return err
}

// OpenReader sniffs the format (binary magic vs text header) and returns
// the right Source together with its schema. The reader must support
// peeking from the start of the stream.
func OpenReader(r io.Reader) (Source, *Schema, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(binaryMagic))
	if err == nil && string(head) == binaryMagic {
		b, err := NewBinaryReader(br)
		if err != nil {
			return nil, nil, err
		}
		return b, b.Schema(), nil
	}
	t, err := NewReader(br)
	if err != nil {
		return nil, nil, err
	}
	return t, t.Schema(), nil
}
