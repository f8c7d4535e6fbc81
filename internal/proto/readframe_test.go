package proto

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// ReadFrame is the reference frame decoder the tests hold FrameReader to:
// the straightforward allocating read-validate-return, byte-equivalent to
// FrameReader.Next on arbitrary input (FuzzFrameReader). It reads exactly
// the frame's bytes from r (no readahead). Any failure other than a clean
// io.EOF at a frame boundary wraps ErrMalformed.
func ReadFrame(r io.Reader) (Frame, error) {
	var head [4 + headerLen]byte
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: truncated length prefix: %v", ErrMalformed, err)
	}
	n := binary.LittleEndian.Uint32(head[:4])
	if n < headerLen || n > MaxFrame {
		return Frame{}, fmt.Errorf("%w: implausible frame length %d", ErrMalformed, n)
	}
	if _, err := io.ReadFull(r, head[4:]); err != nil {
		return Frame{}, fmt.Errorf("%w: truncated frame body: %v", ErrMalformed, err)
	}
	if head[4]&^byte(FlagTraced) != Version {
		return Frame{}, fmt.Errorf("%w: protocol version %d (want %d)", ErrMalformed, head[4], Version)
	}
	f := Frame{
		Type:    Type(head[5]),
		ID:      binary.LittleEndian.Uint64(head[6:]),
		Payload: make([]byte, n-headerLen),
	}
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return Frame{}, fmt.Errorf("%w: truncated frame body: %v", ErrMalformed, err)
	}
	sum := binary.LittleEndian.Uint32(head[14:])
	if got := crc32.Checksum(f.Payload, castagnoli); got != sum {
		return Frame{}, fmt.Errorf("%w: payload checksum mismatch (stored %08x, computed %08x)", ErrMalformed, sum, got)
	}
	if head[4]&FlagTraced != 0 {
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
