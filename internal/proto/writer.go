package proto

import (
	"errors"
	"io"
	"sync"
)

// writerBufCap is the pending byte count at which senders wait for the
// flusher to take the buffer. It bounds what one connection queues ahead of
// the socket; a single frame larger than this is still accepted whole (into
// an empty buffer), so the bound is writerBufCap plus one frame.
const writerBufCap = 256 << 10

// errWriterClosed is returned by sends after Close.
var errWriterClosed = errors.New("proto: frame writer closed")

// Writer is one connection's coalescing write side (DESIGN.md §11), on the
// client, the server and the coordinator front-end alike: any goroutine
// encodes its frame straight into one pending buffer under a mutex, and one
// flusher goroutine swaps that buffer out and hands everything that
// accumulated to the connection in a single Write, so pipelined senders
// share syscalls. Frames from one sender leave in call order and frames
// never interleave. An oversize frame fails alone: it returns an error,
// queues nothing and leaves the connection up. The first write error is
// sticky: every later send returns it, senders waiting for room are
// released with it, and the fail hook runs once. Write and WriteFunc
// allocate nothing once the buffers have grown to the connection's working
// size.
type Writer struct {
	w    io.Writer
	fail func(error)

	mu      sync.Mutex
	ready   sync.Cond // the flusher waits here for bytes or Close
	room    sync.Cond // senders wait here while the pending buffer is full
	pending []byte    // encoded frames the flusher has not taken yet
	spare   []byte    // the last flushed buffer, the next pending's backing
	err     error     // the first write error
	closing bool
	done    chan struct{} // closed when the flusher exits
}

// NewWriter starts a Writer over w. fail, if non-nil, runs once on the
// flusher goroutine after the first write error — typically to close the
// connection so its reader stops too. It may call Close.
func NewWriter(w io.Writer, fail func(error)) *Writer {
	fw := &Writer{w: w, fail: fail, done: make(chan struct{})}
	fw.ready.L = &fw.mu
	fw.room.L = &fw.mu
	go fw.flush()
	return fw
}

// Write queues f, encoded with AppendFrame.
func (w *Writer) Write(f Frame) error {
	if err := w.lock(); err != nil {
		return err
	}
	buf, err := AppendFrame(w.pending, f)
	return w.unlock(buf, err)
}

// WriteFunc queues a frame whose payload fn appends in place, encoded with
// AppendFrameFunc: the allocation-free path for acks and other small
// replies. fn runs under the writer's lock, so it must only append: never
// block, never call back into the writer.
func (w *Writer) WriteFunc(t Type, id uint64, fn func([]byte) []byte) error {
	if err := w.lock(); err != nil {
		return err
	}
	buf, err := AppendFrameFunc(w.pending, t, id, fn)
	return w.unlock(buf, err)
}

// lock takes mu once the pending buffer has room. It returns with mu held
// only when it returns nil.
func (w *Writer) lock() error {
	w.mu.Lock()
	for w.err == nil && !w.closing && len(w.pending) >= writerBufCap {
		w.room.Wait()
	}
	if w.err != nil || w.closing {
		err := w.err
		if err == nil {
			err = errWriterClosed
		}
		w.mu.Unlock()
		return err
	}
	return nil
}

// unlock stores the extended pending buffer, wakes the flusher if it was
// idle, and releases mu.
func (w *Writer) unlock(buf []byte, err error) error {
	if len(w.pending) == 0 && len(buf) > 0 {
		w.ready.Signal()
	}
	w.pending = buf
	w.mu.Unlock()
	return err
}

// flush is the flusher goroutine: it writes whatever is pending, one Write
// per swap, until Close finds the buffer empty or a write fails.
func (w *Writer) flush() {
	var err error
	w.mu.Lock()
	for {
		for len(w.pending) == 0 && !w.closing {
			w.ready.Wait()
		}
		if len(w.pending) == 0 {
			break // closing, and everything queued is written
		}
		buf := w.pending
		w.pending, w.spare = w.spare[:0], nil
		w.room.Broadcast()
		w.mu.Unlock()
		_, err = w.w.Write(buf)
		w.mu.Lock()
		if err != nil {
			w.err = err
			w.room.Broadcast()
			break
		}
		// Keep the buffer for reuse unless one outsized frame grew it.
		if cap(buf) <= 2*writerBufCap {
			w.spare = buf[:0]
		}
	}
	w.mu.Unlock()
	close(w.done)
	if err != nil && w.fail != nil {
		w.fail(err)
	}
}

// Close writes everything queued, stops the flusher and returns the sticky
// write error, if any. Sends after Close fail. It may be called from any
// goroutine, the fail hook included, and more than once. It waits for the
// queued bytes to reach the underlying writer, so a caller that must not
// wait on a stalled peer closes the connection first.
func (w *Writer) Close() error {
	w.mu.Lock()
	w.closing = true
	w.ready.Signal()
	w.room.Broadcast()
	w.mu.Unlock()
	<-w.done
	return w.err // the flusher wrote it, if at all, before closing done
}
