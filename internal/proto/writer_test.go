package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedWriter records every Write it receives; the first one blocks until
// gate closes, with entered closed once it has started.
type gatedWriter struct {
	entered, gate chan struct{}
	err           error // returned by every Write once the gate opens

	mu    sync.Mutex
	calls int
	buf   bytes.Buffer
}

func newGatedWriter(err error) *gatedWriter {
	return &gatedWriter{entered: make(chan struct{}), gate: make(chan struct{}), err: err}
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	g.calls++
	first := g.calls == 1
	g.buf.Write(p)
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.gate
	}
	if g.err != nil {
		return 0, g.err
	}
	return len(p), nil
}

// waitErr returns what ch yields, failing the test if nothing arrives.
func waitErr(t *testing.T, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("sender still blocked after 5s")
		return nil
	}
}

// TestWriterCoalesces pins the point of the writer: frames queued while one
// write is in flight leave together in the next one. One frame occupies the
// flusher, 63 more queue behind it, and the connection sees exactly two
// writes whose bytes are the 64 AppendFrame encodings in order.
func TestWriterCoalesces(t *testing.T) {
	g := newGatedWriter(nil)
	w := NewWriter(g, nil)
	var want []byte
	send := func(i int) {
		f := Frame{Type: TIngest, ID: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, i*7)}
		want, _ = AppendFrame(want, f)
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	send(0)
	<-g.entered
	for i := 1; i < 64; i++ {
		send(i)
	}
	close(g.gate)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if g.calls != 2 {
		t.Errorf("%d writes for 64 frames, want 2", g.calls)
	}
	if !bytes.Equal(g.buf.Bytes(), want) {
		t.Error("written bytes differ from the frames' AppendFrame encodings")
	}
}

// TestWriterConcurrentSenders has 8 goroutines send 500 frames each —
// mixed payload sizes, some traced, some through WriteFunc — over a pipe
// read back with FrameReader: every frame arrives exactly once, intact, and
// each sender's frames arrive in its call order.
func TestWriterConcurrentSenders(t *testing.T) {
	const senders, perSender = 8, 500
	pr, pw := io.Pipe()
	w := NewWriter(pw, nil)
	payloadOf := func(id uint64) []byte {
		n := int(id * 2654435761 % 3000)
		if id%97 == 0 {
			n += 2 * writerBufCap / 3 // now and then a frame that fills the buffer
		}
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(id) + byte(i)
		}
		return p
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				id := uint64(s)<<32 | uint64(i)
				p := payloadOf(id)
				var err error
				switch i % 3 {
				case 0:
					err = w.Write(Frame{Type: TIngest, ID: id, Payload: p})
				case 1:
					err = w.Write(Frame{Type: TQuery, ID: id, TC: TraceContext{Trace: id + 1, Parent: 9}, Payload: p})
				default:
					err = w.WriteFunc(TResult, id, func(d []byte) []byte { return append(d, p...) })
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		pw.CloseWithError(w.Close())
	}()
	next := make([]int, senders)
	fr := NewFrameReader(pr)
	for n := 0; ; n++ {
		f, err := fr.Next()
		if err == io.EOF {
			if n != senders*perSender {
				t.Fatalf("read %d frames, want %d", n, senders*perSender)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		s, i := int(f.ID>>32), int(uint32(f.ID))
		if s >= senders || i != next[s] {
			t.Fatalf("frame %d of sender %d arrived, want %d", i, s, next[s])
		}
		next[s]++
		if traced := i%3 == 1; f.TC.Valid() != traced || !bytes.Equal(f.Payload, payloadOf(f.ID)) {
			t.Fatalf("frame %d of sender %d arrived damaged", i, s)
		}
	}
}

// TestWriterCloseFlushes checks that Close writes everything queued, that
// sends after Close fail, and that an oversize frame fails alone: nothing
// of it is queued and the frames around it still go out.
func TestWriterCloseFlushes(t *testing.T) {
	g := newGatedWriter(nil)
	w := NewWriter(g, nil)
	var want []byte
	for i := 0; i < 100; i++ {
		f := Frame{Type: TOK, ID: uint64(i), Payload: []byte("ack")}
		want, _ = AppendFrame(want, f)
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
		if i == 50 {
			if w.Write(Frame{Type: TOK, ID: 999, Payload: make([]byte, MaxFrame)}) == nil {
				t.Fatal("an oversize frame was accepted")
			}
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- w.Close() }()
	close(g.gate)
	if err := waitErr(t, closed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.buf.Bytes(), want) {
		t.Error("Close did not write exactly the queued frames")
	}
	if w.Write(Frame{Type: TOK, ID: 1}) == nil {
		t.Error("a send after Close was accepted")
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestWriterStickyError checks the failure contract: the first write error
// runs the fail hook exactly once (which may call Close), releases a sender
// blocked on a full buffer, and is returned by every later send and by
// Close.
func TestWriterStickyError(t *testing.T) {
	boom := errors.New("boom")
	g := newGatedWriter(boom)
	var fails atomic.Int32
	var w *Writer
	w = NewWriter(g, func(err error) {
		fails.Add(1)
		if !errors.Is(err, boom) {
			t.Errorf("fail hook got %v", err)
		}
		w.Close()
	})
	if err := w.Write(Frame{Type: TOK, ID: 1}); err != nil {
		t.Fatal(err)
	}
	<-g.entered // the flusher is stuck in the first write
	if err := w.Write(Frame{Type: TResult, ID: 2, Payload: make([]byte, writerBufCap)}); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- w.Write(Frame{Type: TOK, ID: 3}) }() // the buffer is full
	close(g.gate)
	if err := waitErr(t, blocked); !errors.Is(err, boom) {
		t.Errorf("blocked sender released with %v, want %v", err, boom)
	}
	if err := w.WriteFunc(TOK, 4, IngestAck{Tuples: 1}.AppendTo); !errors.Is(err, boom) {
		t.Errorf("send after the failure: %v, want %v", err, boom)
	}
	if err := w.Close(); !errors.Is(err, boom) {
		t.Errorf("Close: %v, want %v", err, boom)
	}
	time.Sleep(10 * time.Millisecond) // the hook runs after the flusher exits
	if n := fails.Load(); n != 1 {
		t.Errorf("fail hook ran %d times, want 1", n)
	}
}

// TestWriterZeroAlloc pins Write and WriteFunc at zero allocations once the
// writer's two buffers have grown to their working size.
func TestWriterZeroAlloc(t *testing.T) {
	w := NewWriter(io.Discard, nil)
	defer w.Close()
	f := Frame{Type: TIngest, ID: 1, TC: TraceContext{Trace: 3, Parent: 4}, Payload: bytes.Repeat([]byte{1}, 700)}
	for i := 0; i < 4*writerBufCap/700; i++ {
		w.Write(f)
	}
	if a := testing.AllocsPerRun(1000, func() {
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Write: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		if err := w.WriteFunc(TOK, 7, IngestAck{Tuples: 32}.AppendTo); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("WriteFunc: %v allocs, want 0", a)
	}
}

// FuzzWriterEquivalence derives a frame sequence from the input — types,
// ids, payload lengths up to 64 KiB, optional trace context, Write or
// WriteFunc — and requires the bytes a Writer puts on the wire to be the
// concatenation of the frames' AppendFrame/AppendFrameFunc encodings.
func FuzzWriterEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x10, 0x00})
	f.Add([]byte{0x02, 0x01, 0xff, 0xff, 0x10, 0x02, 0x03, 0x00, 0x11, 0x03, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		w := NewWriter(&out, nil)
		var want []byte
		for i := 0; len(data) >= 4 && i < 64; i, data = i+1, data[4:] {
			typ, flags := Type(data[0]), data[1]
			payload := bytes.Repeat([]byte{data[0] ^ byte(i)}, int(binary.LittleEndian.Uint16(data[2:])))
			id := uint64(i) * 0x9e3779b97f4a7c15
			var err error
			if flags&2 != 0 {
				fn := func(d []byte) []byte { return append(d, payload...) }
				want, _ = AppendFrameFunc(want, typ, id, fn)
				err = w.WriteFunc(typ, id, fn)
			} else {
				fr := Frame{Type: typ, ID: id, Payload: payload}
				if flags&1 != 0 {
					fr.TC = TraceContext{Trace: id | 1, Parent: uint64(flags)}
				}
				want, _ = AppendFrame(want, fr)
				err = w.Write(fr)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("writer produced %d bytes, the encodings are %d", out.Len(), len(want))
		}
	})
}
