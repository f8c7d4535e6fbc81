package stream

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// encodeBinary writes tuples in the binary format and returns the full
// stream plus the record region (header stripped via BinaryHeader).
func encodeBinary(t testing.TB, schema *Schema, tuples []Tuple) (full, records []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf, schema)
	for _, tu := range tuples {
		if err := w.Write(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full = buf.Bytes()
	hdr := BinaryHeader(schema)
	if !bytes.HasPrefix(full, hdr) {
		t.Fatalf("BinaryHeader is not the writer's header prefix\nheader: %x\nstream: %x", hdr, full[:min(len(full), len(hdr)+8)])
	}
	return full, full[len(hdr):]
}

// TestDecodeBinaryRecordsMatchesReader decodes the same batches through
// DecodeBinaryRecords and BinaryReader.NextBatch and requires identical
// tuples.
func TestDecodeBinaryRecordsMatchesReader(t *testing.T) {
	schema := MustSchema("A", "B")
	cases := [][]Tuple{
		nil,
		{{"x", "y"}},
		{{"", ""}, {"a", ""}, {"", "b"}},
		func() []Tuple {
			var ts []Tuple
			for i := 0; i < 500; i++ {
				ts = append(ts, Tuple{fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i%7)})
			}
			return ts
		}(),
	}
	for ci, tuples := range cases {
		full, records := encodeBinary(t, schema, tuples)

		got, err := new(RecordArena).DecodeBinaryRecords(records, schema.Len(), len(tuples)+1)
		if err != nil {
			t.Fatalf("case %d: DecodeBinaryRecords: %v", ci, err)
		}

		r, err := NewBinaryReader(bytes.NewReader(full))
		if err != nil {
			t.Fatalf("case %d: NewBinaryReader: %v", ci, err)
		}
		want := make([]Tuple, len(tuples))
		n, err := r.NextBatch(want)
		if err != nil && err != io.EOF {
			t.Fatalf("case %d: NextBatch: %v", ci, err)
		}
		want = want[:n]

		if len(got) != len(want) {
			t.Fatalf("case %d: %d tuples vs reader's %d", ci, len(got), len(want))
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("case %d tuple %d field %d: %q vs %q", ci, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestDecodeBinaryRecordsRejects covers the decoder's failure policy:
// structural damage and oversized batches are errors, never truncations.
func TestDecodeBinaryRecordsRejects(t *testing.T) {
	schema := MustSchema("A", "B")
	tuples := []Tuple{{"aa", "bb"}, {"cc", "dd"}}
	_, records := encodeBinary(t, schema, tuples)

	if _, err := new(RecordArena).DecodeBinaryRecords(records, schema.Len(), 1); err == nil {
		t.Fatal("expected a too-many-tuples error")
	}
	if _, err := new(RecordArena).DecodeBinaryRecords(records[:len(records)-1], schema.Len(), 10); err == nil {
		t.Fatal("expected a truncated-value error")
	}
	// An odd field count ends mid-record for arity 2.
	oneField := append([]byte{1}, 'z')
	if _, err := new(RecordArena).DecodeBinaryRecords(oneField, 2, 10); err == nil {
		t.Fatal("expected a mid-record error")
	}
	if _, err := new(RecordArena).DecodeBinaryRecords(records, 0, 10); err == nil {
		t.Fatal("expected an arity error")
	}
}

// TestDecodeBinaryRecordsNoAliasing pins the self-containment contract:
// mutating the input buffer after decoding must not change the tuples.
func TestDecodeBinaryRecordsNoAliasing(t *testing.T) {
	schema := MustSchema("A", "B")
	_, records := encodeBinary(t, schema, []Tuple{{"alpha", "beta"}})
	buf := append([]byte(nil), records...)
	got, err := new(RecordArena).DecodeBinaryRecords(buf, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	if got[0][0] != "alpha" || got[0][1] != "beta" {
		t.Fatalf("decoded tuples alias the input buffer: %v", got[0])
	}
}

func BenchmarkDecodeBinaryRecords(b *testing.B) {
	schema := MustSchema("A", "B")
	tuples := make([]Tuple, 1000)
	for i := range tuples {
		tuples[i] = Tuple{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%11)}
	}
	_, records := encodeBinary(b, schema, tuples)
	var ar RecordArena
	b.SetBytes(int64(len(records)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ar.DecodeBinaryRecords(records, 2, len(tuples)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryReaderNextBatch(b *testing.B) {
	schema := MustSchema("A", "B")
	tuples := make([]Tuple, 1000)
	for i := range tuples {
		tuples[i] = Tuple{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%11)}
	}
	full, _ := encodeBinary(b, schema, tuples)
	dst := make([]Tuple, len(tuples))
	b.SetBytes(int64(len(full)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewBinaryReader(bytes.NewReader(full))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.NextBatch(dst); err != nil && err != io.EOF {
			b.Fatal(err)
		}
	}
}

// TestValidateBinaryRecords pins what the wire-side validator adds to the
// decoder's structural pass: over-long length prefixes are refused, and the
// key separator inside a value, and only there — 0x1f as a length prefix is
// a 31-byte value.
func TestValidateBinaryRecords(t *testing.T) {
	schema := MustSchema("A", "B")
	long := string(bytes.Repeat([]byte("v"), int(KeySep))) // length prefix == KeySep
	_, good := encodeBinary(t, schema, []Tuple{{"a", long}, {"", ""}, {long, "b"}})
	if n, err := ValidateBinaryRecords(good, 2); err != nil || n != 3 {
		t.Fatalf("valid region: n=%d err=%v, want 3 tuples", n, err)
	}
	if n, err := ValidateBinaryRecords(nil, 2); err != nil || n != 0 {
		t.Fatalf("empty region: n=%d err=%v", n, err)
	}
	poison := AppendBinaryRecord(append([]byte(nil), good...), Tuple{"a1", "x\x1fy"})
	if _, err := ValidateBinaryRecords(poison, 2); err == nil {
		t.Error("key separator inside a value accepted")
	}
	if _, err := new(RecordArena).DecodeBinaryRecords(poison, 2, 10); err != nil {
		t.Errorf("the serving decoder's admission changed: %v", err)
	}
	for name, bad := range map[string][]byte{
		"mid-record":              good[:len(good)-2],
		"truncated":               append(append([]byte(nil), good...), 5, 'x'),
		"bad length":              {0x80},
		"over-long length prefix": {0x81, 0x00, 'a', 0x00},
	} {
		if _, err := ValidateBinaryRecords(bad, 2); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ValidateBinaryRecords(good, 0); err == nil {
		t.Error("arity 0 accepted")
	}
}

// TestRecordSpansMatchDecode walks a validated region record by record and
// requires the spans, the re-framed record bytes and the route key to agree
// with the decoded tuples.
func TestRecordSpansMatchDecode(t *testing.T) {
	schema := MustSchema("A", "B", "C")
	tuples := []Tuple{{"a", "", "ccc"}, {"", "", ""}, {string(bytes.Repeat([]byte("k"), 300)), "b", "c"}}
	_, recs := encodeBinary(t, schema, tuples)
	if _, err := ValidateBinaryRecords(recs, 3); err != nil {
		t.Fatal(err)
	}
	for _, attrs := range [][]string{{"B"}, {"C", "A"}} {
		proj := schema.MustProj(attrs...)
		spans := make([]Span, 3)
		off := 0
		for i, tu := range tuples {
			end := RecordSpans(recs, off, spans)
			for j, sp := range spans {
				if got := string(recs[sp.Off:sp.End]); got != tu[j] {
					t.Fatalf("tuple %d value %d: span reads %q, want %q", i, j, got, tu[j])
				}
			}
			if want := AppendBinaryRecord(nil, tu); !bytes.Equal(recs[off:end], want) {
				t.Fatalf("tuple %d: record bytes %x, want %x", i, recs[off:end], want)
			}
			if got, want := proj.AppendKeySpans(nil, recs, spans), proj.AppendKey(nil, tu); !bytes.Equal(got, want) {
				t.Fatalf("tuple %d proj %v: key %q, want %q", i, attrs, got, want)
			}
			off = end
		}
		if off != len(recs) {
			t.Fatalf("walk ended at %d of %d bytes", off, len(recs))
		}
	}
}

// TestEncodeBinaryBatch: the append encoder's bytes are the writer's, in a
// buffer of exactly that size, and a batch with one bad tuple is refused
// whole.
func TestEncodeBinaryBatch(t *testing.T) {
	schema := MustSchema("A", "B")
	tuples := []Tuple{{"x", "y"}, {"", ""}, {"long-value", ""}}
	full, _ := encodeBinary(t, schema, tuples)
	got, err := EncodeBinaryBatch(schema, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatalf("encoded batch %x, want %x", got, full)
	}
	if cap(got) != len(got) {
		t.Errorf("cap %d for %d bytes, want exact", cap(got), len(got))
	}
	for _, bad := range [][]Tuple{{{"x", "y"}, {"only-one"}}, {{"a\x1fb", "c"}}} {
		if out, err := EncodeBinaryBatch(schema, bad); err == nil || out != nil {
			t.Errorf("bad batch %q: out %q err %v, want refusal", bad, out, err)
		}
	}
}
