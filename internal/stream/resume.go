package stream

import (
	"fmt"
	"io"
)

// Resumable is implemented by sources that can report how many tuples they
// have yielded and skip ahead without yielding — what crash recovery needs
// to replay a stream from a checkpointed offset.
type Resumable interface {
	Source
	// Pos returns the number of tuples yielded so far.
	Pos() int64
	// SkipTuples advances past n further tuples without yielding them. It
	// returns an error when the stream ends first: a checkpoint offset
	// beyond the stream means the checkpoint does not belong to this stream.
	SkipTuples(n int64) error
}

// Pos implements Resumable.
func (m *MemSource) Pos() int64 { return int64(m.pos) }

// SkipTuples implements Resumable.
func (m *MemSource) SkipTuples(n int64) error {
	if n < 0 {
		return fmt.Errorf("stream: cannot skip %d tuples", n)
	}
	if int64(len(m.tuples)-m.pos) < n {
		return fmt.Errorf("stream: cannot skip %d tuples, only %d remain", n, len(m.tuples)-m.pos)
	}
	m.pos += int(n)
	return nil
}

// Pos implements Resumable.
func (r *Reader) Pos() int64 { return r.pos }

// SkipTuples implements Resumable: skipped records are consumed line-wise
// without field parsing.
func (r *Reader) SkipTuples(n int64) error {
	if n < 0 {
		return fmt.Errorf("stream: cannot skip %d tuples", n)
	}
	for i := int64(0); i < n; i++ {
		if !r.s.Scan() {
			if err := r.s.Err(); err != nil {
				return err
			}
			return fmt.Errorf("stream: cannot skip %d tuples, stream ended after %d", n, i)
		}
		r.line++
		r.pos++
	}
	return nil
}

// Pos implements Resumable.
func (r *BinaryReader) Pos() int64 { return r.pos }

// SkipTuples implements Resumable: skipped records are decoded and dropped.
func (r *BinaryReader) SkipTuples(n int64) error {
	if n < 0 {
		return fmt.Errorf("stream: cannot skip %d tuples", n)
	}
	for i := int64(0); i < n; {
		if len(r.dec) == 0 && !r.fill() {
			if r.err == io.EOF {
				return fmt.Errorf("stream: cannot skip %d tuples, stream ended after %d", n, i)
			}
			return r.err
		}
		k := min(int64(len(r.dec)), n-i)
		r.dec = r.dec[k:]
		r.pos += k
		i += k
	}
	return nil
}

var (
	_ Resumable = (*MemSource)(nil)
	_ Resumable = (*Reader)(nil)
	_ Resumable = (*BinaryReader)(nil)
)
