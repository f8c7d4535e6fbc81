package proto

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// The zero-allocation frame path (DESIGN.md §11). Allocating a fresh
// payload buffer per frame is the first thing an ingest-rate wire path has
// to stop doing: at millions of tuples per second the per-frame garbage
// dominates the profile. FrameReader is one buffered reader and one
// grow-only frame buffer per connection, reused for every frame, so
// steady-state decode performs zero heap allocations per frame.
//
// The price is an ownership rule: a Frame returned by Next aliases the
// reader's internal buffer and is valid only until the following Next
// call. A handler that must keep payload bytes past that point copies them
// out — RetainPayload is the pooled escape hatch, paired with
// ReleasePayload when the copy is done (the server's UDP reorder window is
// the canonical user) — or, when it knows before the read, reads the frame
// with NextInto into a buffer it owns, which costs no copy beyond Next's
// own (the coordinator front-end hands ingest frames to its ingest
// goroutine so).

// readerBufSize is FrameReader's bufio size. 64 KiB batches read syscalls
// across several typical ingest frames without holding a large buffer per
// idle connection.
const readerBufSize = 1 << 16

// FrameReader decodes frames from one stream with per-connection reusable
// buffers. Not safe for concurrent use; each connection owns one.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte // Next's grow-only frame body buffer; payloads it returns alias it
}

// NewFrameReader returns a FrameReader over r. If r is already a
// *bufio.Reader it is used directly, so stacking does not double-buffer.
func NewFrameReader(r io.Reader) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, readerBufSize)
	}
	return &FrameReader{br: br}
}

// Next reads and validates one frame. The returned frame's payload aliases
// the reader's internal buffer: it is valid only until the next call to
// Next. Use RetainPayload (or an explicit copy) for payloads that must
// survive longer. A clean io.EOF at a frame boundary is io.EOF; anything
// else wraps ErrMalformed and the stream must be dropped.
func (fr *FrameReader) Next() (Frame, error) {
	f, buf, err := fr.NextInto(fr.buf)
	fr.buf = buf
	return f, err
}

// NextInto is Next reading the frame body into buf instead of the reader's
// own buffer: the handoff read, for a caller that passes each frame to
// another goroutine and recycles the buffer once that goroutine is done.
// buf is grown (reallocated) only when the frame does not fit; the buffer
// actually used is returned, on error too, and the frame's payload aliases
// it. The bytes cross from the bufio buffer exactly once, as with Next.
func (fr *FrameReader) NextInto(buf []byte) (Frame, []byte, error) {
	// Peek the prefix out of bufio's buffer rather than io.ReadFull into a
	// local array: the local would escape through the io.Reader interface
	// and cost one heap allocation per frame.
	p, err := fr.br.Peek(4)
	if err != nil {
		if err == io.EOF && len(p) == 0 {
			return Frame{}, buf, io.EOF
		}
		return Frame{}, buf, fmt.Errorf("%w: truncated length prefix: %v", ErrMalformed, err)
	}
	n := binary.LittleEndian.Uint32(p)
	fr.br.Discard(4)
	if n < headerLen || n > MaxFrame {
		return Frame{}, buf, fmt.Errorf("%w: implausible frame length %d", ErrMalformed, n)
	}
	if cap(buf) < int(n) {
		// Grow-only: the buffer settles at the connection's largest frame.
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(fr.br, body); err != nil {
		return Frame{}, buf, fmt.Errorf("%w: truncated frame body: %v", ErrMalformed, err)
	}
	f, err := parseFrameBody(body)
	return f, buf, err
}

// parseFrameBody validates a frame body (everything after the length
// prefix) and builds the Frame view over it.
func parseFrameBody(buf []byte) (Frame, error) {
	if buf[0]&^byte(FlagTraced) != Version {
		return Frame{}, fmt.Errorf("%w: protocol version %d (want %d)", ErrMalformed, buf[0], Version)
	}
	f := Frame{
		Type:    Type(buf[1]),
		ID:      binary.LittleEndian.Uint64(buf[2:]),
		Payload: buf[headerLen:],
	}
	sum := binary.LittleEndian.Uint32(buf[10:])
	if got := crc32.Checksum(f.Payload, castagnoli); got != sum {
		return Frame{}, fmt.Errorf("%w: payload checksum mismatch (stored %08x, computed %08x)", ErrMalformed, sum, got)
	}
	if buf[0]&FlagTraced != 0 {
		if len(f.Payload) < traceContextLen {
			return Frame{}, fmt.Errorf("%w: traced frame shorter than its context", ErrMalformed)
		}
		f.TC = TraceContext{
			Trace:  binary.LittleEndian.Uint64(f.Payload[0:]),
			Parent: binary.LittleEndian.Uint64(f.Payload[8:]),
		}
		f.Payload = f.Payload[traceContextLen:]
	}
	return f, nil
}

// payloadPool recycles retained payload copies. Buffers are pooled as
// *[]byte so Put does not allocate a fresh interface box per release.
var payloadPool = sync.Pool{New: func() any { return new([]byte) }}

// RetainPayload copies p into a pooled buffer and returns the copy. It is
// the escape hatch for frames that must outlive their FrameReader's next
// read: the caller owns the returned slice exclusively until it hands it
// back through ReleasePayload. Releasing is optional — an unreleased
// buffer is ordinary garbage — but releasing lets the backing array be
// reused instead of reallocated.
func RetainPayload(p []byte) []byte {
	bp := payloadPool.Get().(*[]byte)
	b := *bp
	if cap(b) < len(p) {
		b = make([]byte, len(p))
	}
	b = b[:len(p)]
	copy(b, p)
	// The box goes back empty so no pooled entry ever aliases a buffer a
	// caller still owns; the backing array returns via ReleasePayload.
	*bp = nil
	payloadPool.Put(bp)
	return b
}

// ReleasePayload returns a RetainPayload buffer's backing array to the
// pool. The caller must not touch b afterwards. Buffers from other sources
// are accepted too (they simply join the pool), so callers can release
// unconditionally.
func ReleasePayload(b []byte) {
	if cap(b) == 0 {
		return
	}
	bp := payloadPool.Get().(*[]byte)
	if cap(b) > cap(*bp) {
		*bp = b[:0]
	}
	payloadPool.Put(bp)
}

// AppendFrameFunc appends one frame whose payload is produced by fn
// writing directly into the destination buffer — the zero-copy encode
// Writer.WriteFunc uses for acks: no intermediate payload slice exists. fn
// must append its payload to the slice it receives and return the
// extension; the header (length, CRC) is back-patched after fn runs.
// Returns an error only when the produced payload exceeds MaxFrame, in
// which case dst is returned unchanged.
func AppendFrameFunc(dst []byte, t Type, id uint64, fn func([]byte) []byte) ([]byte, error) {
	base := len(dst)
	// Reserve the length prefix and header; patch both once the payload
	// length and checksum are known.
	dst = append(dst, 0, 0, 0, 0, Version, uint8(t))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, 0, 0, 0, 0) // CRC placeholder
	payloadStart := len(dst)
	dst = fn(dst)
	n := len(dst) - payloadStart
	if n > MaxFrame-headerLen {
		return dst[:base], fmt.Errorf("proto: payload of %d bytes exceeds the %d-byte frame limit", n, MaxFrame)
	}
	binary.LittleEndian.PutUint32(dst[base:], uint32(headerLen+n))
	// The CRC sits at body offset 10, i.e. after the length prefix too.
	binary.LittleEndian.PutUint32(dst[base+4+10:], crc32.Checksum(dst[payloadStart:], castagnoli))
	return dst, nil
}

// AppendTo appends the ack payload to dst — the allocation-free encode
// replies use through Writer.WriteFunc.
func (a IngestAck) AppendTo(dst []byte) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(a.Tuples))
}

// AppendTo appends the backpressure payload to dst (millisecond
// resolution, clamped to [0, 2^31]) without allocating.
func (b Busy) AppendTo(dst []byte) []byte {
	ms := b.RetryAfter.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > 1<<31 {
		ms = 1 << 31
	}
	return binary.LittleEndian.AppendUint32(dst, uint32(ms))
}
