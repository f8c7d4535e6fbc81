package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	schema := MustSchema("Source", "Destination", "Service")
	tuples := []Tuple{
		{"S1", "D2", "WWW"},
		{"", "D1", "FTP"}, // empty values are legal
		{"S3 with spaces", "D3\twith\ttabs", "P2P\nnewline"}, // bytes the text codec forbids
	}
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf, schema)
	for _, tup := range tuples {
		if err := w.Write(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewBinaryReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Schema().Names(), schema.Names()) {
		t.Fatalf("schema = %v", r.Schema().Names())
	}
	var got []Tuple
	for {
		tup, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, append(Tuple(nil), tup...))
	}
	if !reflect.DeepEqual(got, tuples) {
		t.Fatalf("round trip: %v", got)
	}
}

func TestBinaryRoundTripQuick(t *testing.T) {
	schema := MustSchema("a", "b")
	f := func(raw [][2]string) bool {
		var tuples []Tuple
		for _, p := range raw {
			if strings.ContainsRune(p[0], rune(KeySep)) || strings.ContainsRune(p[1], rune(KeySep)) {
				return true // reserved byte, writer rejects by design
			}
			tuples = append(tuples, Tuple{p[0], p[1]})
		}
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf, schema)
		for _, tup := range tuples {
			if err := w.Write(tup); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewBinaryReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		for _, want := range tuples {
			got, err := r.Next()
			if err != nil || !reflect.DeepEqual(append(Tuple(nil), got...), want) {
				return false
			}
		}
		_, err = r.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryWriterRejects(t *testing.T) {
	schema := MustSchema("a")
	w := NewBinaryWriter(io.Discard, schema)
	if err := w.Write(Tuple{"with\x1fsep"}); err == nil {
		t.Error("key separator accepted")
	}
	if err := w.Write(Tuple{"x", "y"}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestBinaryReaderErrors(t *testing.T) {
	if _, err := NewBinaryReader(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := NewBinaryReader(strings.NewReader("NOTMAGIC")); err == nil {
		t.Error("bad magic accepted")
	}
	// A valid header followed by a truncated record.
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf, MustSchema("a", "b"))
	if err := w.Write(Tuple{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r, err := NewBinaryReader(bytes.NewReader(data[:len(data)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("truncated record accepted")
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf, MustSchema("x"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewBinaryReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty stream Next = %v", err)
	}
}

func TestBinaryNextBatch(t *testing.T) {
	schema := MustSchema("Source", "Destination", "Service")
	var tuples []Tuple
	for i := 0; i < 1000; i++ {
		tuples = append(tuples, Tuple{
			"S" + strings.Repeat("x", i%17),
			"D" + strings.Repeat("y", i%5),
			[]string{"WWW", "FTP", "P2P", ""}[i%4],
		})
	}
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf, schema)
	for _, tup := range tuples {
		if err := w.Write(tup); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()

	// Batch sizes that divide the stream evenly, leave a remainder, and
	// exceed it entirely.
	for _, size := range []int{1, 7, 250, 256, 5000} {
		r, err := NewBinaryReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var got []Tuple
		batch := make([]Tuple, size)
		for {
			n, err := r.NextBatch(batch)
			for _, tup := range batch[:n] {
				got = append(got, append(Tuple(nil), tup...))
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
		}
		if !reflect.DeepEqual(got, tuples) {
			t.Fatalf("size %d: batch decode diverges from written stream (%d vs %d tuples)", size, len(got), len(tuples))
		}
		// Exhausted stream keeps returning (0, io.EOF).
		if n, err := r.NextBatch(batch); n != 0 || err != io.EOF {
			t.Fatalf("size %d: post-EOF NextBatch = (%d, %v)", size, n, err)
		}
	}
}

func TestBinaryNextBatchTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf, MustSchema("a", "b"))
	for i := 0; i < 3; i++ {
		if err := w.Write(Tuple{"x", "y"}); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	data := buf.Bytes()
	r, err := NewBinaryReader(bytes.NewReader(data[:len(data)-1]))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Tuple, 8)
	n, err := r.NextBatch(batch)
	if n != 2 {
		t.Fatalf("decoded %d complete tuples before truncation, want 2", n)
	}
	if err == nil || err == io.EOF {
		t.Fatalf("truncated record reported %v, want a decode error", err)
	}
}

func TestOpenReaderSniffs(t *testing.T) {
	schema := MustSchema("a", "b")
	tuple := Tuple{"1", "2"}

	var text bytes.Buffer
	tw := NewWriter(&text, schema)
	if err := tw.Write(tuple); err != nil {
		t.Fatal(err)
	}
	tw.Flush()

	var bin bytes.Buffer
	bw := NewBinaryWriter(&bin, schema)
	if err := bw.Write(tuple); err != nil {
		t.Fatal(err)
	}
	bw.Flush()

	for name, data := range map[string][]byte{"text": text.Bytes(), "binary": bin.Bytes()} {
		src, sch, err := OpenReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(sch.Names(), schema.Names()) {
			t.Fatalf("%s: schema %v", name, sch.Names())
		}
		got, err := src.Next()
		if err != nil || got[0] != "1" || got[1] != "2" {
			t.Fatalf("%s: tuple %v, %v", name, got, err)
		}
		if _, err := src.Next(); err != io.EOF {
			t.Fatalf("%s: expected EOF, got %v", name, err)
		}
	}
}

// drainBinary skips the first skip tuples, then reads r to the end in
// batches of size, returning copies of the tuples and the error that ended
// the stream (io.EOF for a clean end).
func drainBinary(r *BinaryReader, size int, skip int64) ([]Tuple, error) {
	if err := r.SkipTuples(skip); err != nil {
		return nil, err
	}
	var got []Tuple
	batch := make([]Tuple, size)
	for {
		n, err := r.NextBatch(batch)
		for _, tup := range batch[:n] {
			got = append(got, append(Tuple(nil), tup...))
		}
		if err != nil {
			return got, err
		}
	}
}

func sameTuples(a, b []Tuple) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// FuzzBinaryReader: for any input, BinaryReader — whatever its read and
// batch boundaries — yields the tuples and the outcome of the slice
// decoder over the whole input. Where the input is malformed it yields
// every complete record before the damage, then an error; and SkipTuples(k)
// then reading equals reading and dropping k tuples.
func FuzzBinaryReader(f *testing.F) {
	schema := MustSchema("Source", "Destination", "Service")
	written := func(n int) []byte {
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf, schema)
		for i := 0; i < n; i++ {
			// Every 100th tuple carries a value with a two-byte length prefix.
			if err := w.Write(Tuple{fmt.Sprint("S", i%97), strings.Repeat("d", i%5+200*(i%100/99)), ""}); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	big := written(1000)
	for _, seed := range [][]byte{written(0), written(1), big, big[:len(big)-3]} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sch, hdr, herr := ParseBinaryHeader(data)
		var want []Tuple
		werr := herr
		if herr == nil {
			want, werr = new(RecordArena).DecodeBinaryRecords(data[hdr:], sch.Len(), len(data)+1)
		}
		var ref []Tuple // the first reader's tuples: every reader must agree
		first := true
		for _, oneByte := range []bool{false, true} {
			for _, size := range []int{1, 7, 256} {
				var in io.Reader = bytes.NewReader(data)
				if oneByte {
					in = iotest.OneByteReader(in)
				}
				r, err := NewBinaryReader(in)
				if (err == nil) != (herr == nil) {
					t.Fatalf("header: reader error %v, slice parser error %v", err, herr)
				}
				if err != nil {
					return
				}
				got, err := drainBinary(r, size, 0)
				if werr == nil && (err != io.EOF || !sameTuples(got, want)) {
					t.Fatalf("one-byte %v size %d: %d tuples ending in %v; slice decoder: %d tuples", oneByte, size, len(got), err, len(want))
				}
				if werr != nil && (err == nil || err == io.EOF) {
					t.Fatalf("one-byte %v size %d: reader ended cleanly, slice decoder refused: %v", oneByte, size, werr)
				}
				if first {
					ref, first = got, false
				} else if !sameTuples(got, ref) {
					t.Fatalf("one-byte %v size %d: %d tuples, another reader %d", oneByte, size, len(got), len(ref))
				}
			}
		}
		if werr != nil {
			// What the reader yielded before the error is what the slice
			// decoder reads from the records it spans.
			recs := data[hdr:]
			end, spans := 0, make([]Span, sch.Len())
			for range ref {
				end = RecordSpans(recs, end, spans)
			}
			prefix, err := new(RecordArena).DecodeBinaryRecords(recs[:end], sch.Len(), len(ref))
			if err != nil || !sameTuples(prefix, ref) {
				t.Fatalf("reader's %d tuples before the error are not the input's complete records (%v)", len(ref), err)
			}
		}
		for _, k := range []int{1, len(ref) / 2, len(ref)} {
			r, err := NewBinaryReader(iotest.OneByteReader(bytes.NewReader(data)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := drainBinary(r, 7, int64(k))
			if k > len(ref) {
				if err == nil || err == io.EOF {
					t.Fatalf("skipping %d of %d tuples: %v", k, len(ref), err)
				}
				continue
			}
			if !sameTuples(got, ref[k:]) || (err == io.EOF) != (werr == nil) {
				t.Fatalf("skip %d: %d tuples ending in %v, want %d", k, len(got), err, len(ref)-k)
			}
		}
		if werr == nil {
			r, err := NewBinaryReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.SkipTuples(int64(len(ref) + 1)); err == nil || errors.Is(err, io.EOF) {
				t.Fatalf("skipping past the end of %d tuples: %v", len(ref), err)
			}
		}
	})
}
