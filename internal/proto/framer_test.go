package proto

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// TestFrameReaderMatchesReadFrame runs a mixed stream of valid frames
// through both decoders and requires byte-identical results.
func TestFrameReaderMatchesReadFrame(t *testing.T) {
	frames := []Frame{
		{Type: TIngest, ID: 1, Payload: []byte("batch one")},
		{Type: TQuery, ID: 2, Payload: nil},
		{Type: TOK, ID: 3, Payload: bytes.Repeat([]byte{0x5A}, readerBufSize+17)},
		{Type: TBusy, ID: 1<<64 - 1, Payload: []byte{0}},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()

	fr := NewFrameReader(bytes.NewReader(stream))
	rd := bytes.NewReader(stream)
	for i := range frames {
		a, errA := fr.Next()
		// The FrameReader reuses its buffer on the next call; copy before
		// comparing across iterations is unnecessary here because we compare
		// immediately.
		b, errB := ReadFrame(rd)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("frame %d: FrameReader err %v, ReadFrame err %v", i, errA, errB)
		}
		if a.Type != b.Type || a.ID != b.ID || !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("frame %d: decoders disagree: %+v vs %+v", i, a, b)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("FrameReader at EOF: %v", err)
	}
	if _, err := ReadFrame(rd); err != io.EOF {
		t.Fatalf("ReadFrame at EOF: %v", err)
	}
}

// FuzzFrameReaderEquivalence feeds arbitrary bytes to both decoders and
// requires the same accept/reject decision, the same decoded frame on
// accept, and the same error classification on reject. A third reader
// decodes the same bytes with NextInto, alternating two caller buffers as
// a handoff reader does, and must return exactly Next's frames and errors —
// with each frame still intact after the read that follows it.
func FuzzFrameReaderEquivalence(f *testing.F) {
	valid, _ := AppendFrame(nil, Frame{Type: TIngest, ID: 42, Payload: []byte("payload")})
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	trunc := append([]byte(nil), valid[:len(valid)-3]...)
	f.Add(trunc)
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0xFF
	f.Add(corrupt)
	two := append(append([]byte(nil), valid...), valid...)
	f.Add(two)
	long, _ := AppendFrame(append([]byte(nil), two...), Frame{Type: TQuery, ID: 9, TC: TraceContext{Trace: 1, Parent: 2}, Payload: bytes.Repeat([]byte{7}, 100)})
	f.Add(append(long, valid...))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		rd := bytes.NewReader(data)
		fi := NewFrameReader(bytes.NewReader(data))
		// A small first buffer takes the reuse path on short frames and the
		// grow path on long ones.
		bufs := [2][]byte{make([]byte, 0, 24), nil}
		var prev, prevRef Frame
		for i := 0; ; i++ {
			a, errA := fr.Next()
			b, errB := ReadFrame(rd)
			c, buf, errC := fi.NextInto(bufs[i%2])
			bufs[i%2] = buf
			if (errA == nil) != (errC == nil) || (errA != nil && errA.Error() != errC.Error()) {
				t.Fatalf("NextInto error %v, Next error %v", errC, errA)
			}
			if a.Type != c.Type || a.ID != c.ID || a.TC != c.TC || !bytes.Equal(a.Payload, c.Payload) {
				t.Fatalf("NextInto frame %+v, Next frame %+v", c, a)
			}
			if prev.Type != prevRef.Type || prev.ID != prevRef.ID || !bytes.Equal(prev.Payload, prevRef.Payload) {
				t.Fatalf("a handed-off frame changed under the next read: %+v, want %+v", prev, prevRef)
			}
			prev, prevRef = c, b
			if (errA == nil) != (errB == nil) {
				t.Fatalf("decision mismatch: FrameReader %v, ReadFrame %v", errA, errB)
			}
			if errA != nil {
				if (errA == io.EOF) != (errB == io.EOF) {
					t.Fatalf("EOF classification mismatch: %v vs %v", errA, errB)
				}
				if errA != io.EOF &&
					(errors.Is(errA, ErrMalformed) != errors.Is(errB, ErrMalformed)) {
					t.Fatalf("malformed classification mismatch: %v vs %v", errA, errB)
				}
				return
			}
			if a.Type != b.Type || a.ID != b.ID || !bytes.Equal(a.Payload, b.Payload) {
				t.Fatalf("decoded frame mismatch: %+v vs %+v", a, b)
			}
		}
	})
}

// TestRetainPayloadSurvivesNextRead pins the aliasing contract: a payload
// returned by Next is clobbered by the following Next, and RetainPayload is
// the escape hatch that keeps the bytes stable.
func TestRetainPayloadSurvivesNextRead(t *testing.T) {
	var buf bytes.Buffer
	first := bytes.Repeat([]byte{0xAA}, 64)
	second := bytes.Repeat([]byte{0xBB}, 64)
	for _, p := range [][]byte{first, second} {
		if err := WriteFrame(&buf, Frame{Type: TIngest, ID: 1, Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
	f1, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	alias := f1.Payload
	retained := RetainPayload(f1.Payload)
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	// The alias view now shows the second frame's bytes (same backing
	// array); the retained copy still shows the first.
	if !bytes.Equal(alias, second) {
		t.Fatalf("expected the aliased payload to be overwritten by the next read")
	}
	if !bytes.Equal(retained, first) {
		t.Fatalf("retained payload changed under the next read")
	}
	ReleasePayload(retained)
}

// TestFramePathZeroAlloc asserts the steady-state contract directly: zero
// heap allocations per frame for decode (FrameReader) and for the reply
// encodes (AppendFrameFunc).
func TestFramePathZeroAlloc(t *testing.T) {
	payload := bytes.Repeat([]byte{0xCD}, 1024)
	var stream []byte
	const frames = 8
	for i := 0; i < frames; i++ {
		var err error
		stream, err = AppendFrame(stream, Frame{Type: TIngest, ID: uint64(i), Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
	}
	rd := bytes.NewReader(stream)
	fr := NewFrameReader(rd)
	// Warm the grow-only buffer outside the measured window.
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		rd.Seek(0, io.SeekStart)
		for i := 0; i < frames; i++ {
			if _, err := fr.Next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("FrameReader.Next: %v allocs per %d-frame pass, want 0", allocs, frames)
	}

	scratch := make([]byte, 0, 4096)
	allocs = testing.AllocsPerRun(100, func() {
		scratch = scratch[:0]
		var err error
		scratch, err = AppendFrameFunc(scratch, TOK, 7, IngestAck{Tuples: 1000}.AppendTo)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err = AppendFrameFunc(scratch, TBusy, 8, Busy{RetryAfter: time.Millisecond}.AppendTo)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("reply encodes: %v allocs per pass, want 0", allocs)
	}
}

func BenchmarkFrameReaderNext(b *testing.B) {
	payload := bytes.Repeat([]byte{0xEF}, 4096)
	stream, err := AppendFrame(nil, Frame{Type: TIngest, ID: 1, Payload: payload})
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(stream)
	fr := NewFrameReader(rd)
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Seek(0, io.SeekStart)
		if _, err := fr.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFrame(b *testing.B) {
	payload := bytes.Repeat([]byte{0xEF}, 4096)
	stream, err := AppendFrame(nil, Frame{Type: TIngest, ID: 1, Payload: payload})
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(stream)
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Seek(0, io.SeekStart)
		if _, err := ReadFrame(rd); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendFrameFunc(b *testing.B) {
	scratch := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		scratch, err = AppendFrameFunc(scratch[:0], TOK, uint64(i), IngestAck{Tuples: 1000}.AppendTo)
		if err != nil {
			b.Fatal(err)
		}
	}
}
