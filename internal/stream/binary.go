package stream

import (
	"bufio"
	"encoding/binary"
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
	return &BinaryWriter{w: bufio.NewWriterSize(w, 1<<16), schema: schema, buf: make([]byte, binary.MaxVarintLen64)}
}

func (w *BinaryWriter) header() error {
	if _, err := w.w.WriteString(binaryMagic); err != nil {
		return err
	}
	if err := w.uvarint(uint64(w.schema.Len())); err != nil {
		return err
	}
	for _, name := range w.schema.names {
		if err := w.bytes([]byte(name)); err != nil {
			return err
		}
	}
	return nil
}

func (w *BinaryWriter) uvarint(v uint64) error {
	n := binary.PutUvarint(w.buf, v)
	_, err := w.w.Write(w.buf[:n])
	return err
}

func (w *BinaryWriter) bytes(b []byte) error {
	if err := w.uvarint(uint64(len(b))); err != nil {
		return err
	}
	_, err := w.w.Write(b)
	return err
}

func (w *BinaryWriter) str(v string) error {
	if err := w.uvarint(uint64(len(v))); err != nil {
		return err
	}
	_, err := w.w.WriteString(v)
	return err
}

// Write implements Sink.
func (w *BinaryWriter) Write(t Tuple) error {
	if !w.wrote {
		w.wrote = true
		if err := w.header(); err != nil {
			return err
		}
	}
	if err := CheckTuple(t, w.schema.Len()); err != nil {
		return err
	}
	for _, v := range t {
		if err := w.str(v); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes buffered output (writing the header even for empty
// streams).
func (w *BinaryWriter) Flush() error {
	if !w.wrote {
		w.wrote = true
		if err := w.header(); err != nil {
			return err
		}
	}
	return w.w.Flush()
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

// countingReader wraps the buffered input and counts every byte consumed,
// so decode errors can name the exact offset of the corrupt frame — what
// makes a server's "bad batch from peer X" report actionable.
type countingReader struct {
	br *bufio.Reader
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

func (c *countingReader) Discard(n int) (int, error) {
	m, err := c.br.Discard(n)
	c.n += int64(m)
	return m, err
}

// BinaryReader decodes tuples written by BinaryWriter.
type BinaryReader struct {
	r      *countingReader
	schema *Schema
	fields []string

	// arena stages one tuple's raw field bytes during batch decoding so the
	// whole record costs a single string allocation.
	arena []byte
	lens  []int
	pos   int64
}

// NewBinaryReader reads the header and returns a reader positioned at the
// first tuple.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := &BinaryReader{r: &countingReader{br: bufio.NewReaderSize(r, 1<<16)}}
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br.r, magic); err != nil {
		return nil, fmt.Errorf("stream: binary header: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("stream: not a binary stream file")
	}
	n, err := binary.ReadUvarint(br.r)
	if err != nil {
		return nil, fmt.Errorf("stream: binary header: %w", err)
	}
	if n == 0 || n > 4096 {
		return nil, fmt.Errorf("stream: implausible attribute count %d", n)
	}
	names := make([]string, n)
	for i := range names {
		v, err := br.value(1 << 16)
		if err != nil {
			return nil, fmt.Errorf("stream: binary header: %w", err)
		}
		names[i] = v
	}
	schema, err := NewSchema(names...)
	if err != nil {
		return nil, fmt.Errorf("stream: bad binary header: %w", err)
	}
	br.schema = schema
	br.fields = make([]string, n)
	return br, nil
}

func (r *BinaryReader) value(maxLen uint64) (string, error) {
	n, err := binary.ReadUvarint(r.r)
	if err != nil {
		return "", err
	}
	if n > maxLen {
		return "", fmt.Errorf("value length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", err
	}
	return string(buf), nil
}

// Schema returns the schema read from the header.
func (r *BinaryReader) Schema() *Schema { return r.schema }

// recordErr annotates a record-level decode failure with the byte offset
// and tuple index the reader had reached.
func (r *BinaryReader) recordErr(err error) error {
	return fmt.Errorf("stream: binary record at byte offset %d (after tuple %d): %w", r.r.n, r.pos, err)
}

// Next implements Source. The returned tuple aliases an internal buffer and
// is only valid until the next call.
func (r *BinaryReader) Next() (Tuple, error) {
	for i := range r.fields {
		v, err := r.value(1 << 24)
		if err != nil {
			if i == 0 && err == io.EOF {
				return nil, io.EOF
			}
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, r.recordErr(err)
		}
		r.fields[i] = v
	}
	r.pos++
	return Tuple(r.fields), nil
}

// NextBatch implements BatchSource: it decodes up to len(dst) tuples,
// reusing each slot's field slice across calls. Each record's field bytes
// are staged in a shared arena and converted with one string allocation per
// tuple (instead of one per field), which roughly halves decode cost on
// wide schemas. Returns the number of tuples decoded and io.EOF once the
// stream is exhausted.
func (r *BinaryReader) NextBatch(dst []Tuple) (int, error) {
	arity := len(r.fields)
	for k := range dst {
		r.arena = r.arena[:0]
		r.lens = r.lens[:0]
		for i := 0; i < arity; i++ {
			n, err := binary.ReadUvarint(r.r)
			if err != nil {
				if i == 0 && err == io.EOF {
					return k, io.EOF
				}
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return k, r.recordErr(err)
			}
			if n > 1<<24 {
				return k, r.recordErr(fmt.Errorf("value length %d exceeds limit", n))
			}
			off := len(r.arena)
			r.arena = slices.Grow(r.arena, int(n))[:off+int(n)]
			if _, err := io.ReadFull(r.r, r.arena[off:]); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return k, r.recordErr(err)
			}
			r.lens = append(r.lens, int(n))
		}
		if cap(dst[k]) < arity {
			dst[k] = make(Tuple, arity)
		}
		dst[k] = dst[k][:arity]
		rec := string(r.arena)
		off := 0
		for i, n := range r.lens {
			dst[k][i] = rec[off : off+n]
			off += n
		}
		r.pos++
	}
	return len(dst), nil
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
