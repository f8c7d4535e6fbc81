package client

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"implicate/internal/imps"
	"implicate/internal/obs"
	"implicate/internal/proto"
	"implicate/internal/raceflag"
	"implicate/internal/stream"
	"implicate/internal/telemetry"
)

// writerBytes is the reference encoding: a stream.BinaryWriter fed the
// tuples and flushed.
func writerBytes(schema *stream.Schema, tuples []stream.Tuple) ([]byte, error) {
	var buf bytes.Buffer
	w := stream.NewBinaryWriter(&buf, schema)
	for _, t := range tuples {
		if err := w.Write(t); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestEncodeBatchMatchesWriter: for random schemas and tuples — empty
// batches, empty values, values long enough for multi-byte length prefixes,
// the odd reserved byte or wrong arity — EncodeBatch returns the writer's
// bytes, or the writer's error.
func TestEncodeBatchMatchesWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	value := func() string {
		switch rng.Intn(8) {
		case 0:
			return ""
		case 1:
			return string(bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 100+rng.Intn(300)))
		}
		b := make([]byte, 1+rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256))
			if b[i] == stream.KeySep && rng.Intn(50) != 0 {
				b[i] = '_'
			}
		}
		return string(b)
	}
	for iter := 0; iter < 300; iter++ {
		names := make([]string, 1+rng.Intn(5))
		for i := range names {
			names[i] = fmt.Sprintf("attr%d_%d", i, rng.Intn(1000))
		}
		schema, err := stream.NewSchema(names...)
		if err != nil {
			t.Fatal(err)
		}
		tuples := make([]stream.Tuple, rng.Intn(40))
		for i := range tuples {
			arity := len(names)
			if rng.Intn(200) == 0 {
				arity++
			}
			tuples[i] = make(stream.Tuple, arity)
			for j := range tuples[i] {
				tuples[i][j] = value()
			}
		}
		want, wantErr := writerBytes(schema, tuples)
		got, gotErr := EncodeBatch(schema, tuples)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("iter %d: EncodeBatch error %v, writer error %v", iter, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d: EncodeBatch bytes differ from the writer's\n got %x\nwant %x", iter, got, want)
		}
	}
}

func benchTuples(n int) []stream.Tuple {
	ts := make([]stream.Tuple, n)
	for i := range ts {
		ts[i] = stream.Tuple{fmt.Sprintf("src-%d", i%997), fmt.Sprintf("dst-%d", i%13)}
	}
	return ts
}

// TestEncodeBatchAllocs pins the encoder at one exactly-sized buffer per
// call (two allowed), at the small-frame and the large-frame batch size.
func TestEncodeBatchAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-detector bookkeeping allocates; the pin only holds on plain builds")
	}
	schema := testSchema(t)
	for _, n := range []int{32, 1000} {
		tuples := benchTuples(n)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := EncodeBatch(schema, tuples); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("EncodeBatch of %d tuples: %.1f allocs per call, want <= 2", n, allocs)
		}
	}
}

var encodeSink []byte

func BenchmarkEncodeBatch(b *testing.B) {
	schema, err := stream.NewSchema("A", "B")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{32, 1000} {
		tuples := benchTuples(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if encodeSink, err = EncodeBatch(schema, tuples); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tuple")
		})
	}
}

// le64 is v as eight little-endian bytes: the golden vectors' spelling of
// every u64/i64/f64 field.
func le64(v uint64) string { return string(binary.LittleEndian.AppendUint64(nil, v)) }

// TestABI pins the bytes of the formats an ingest, a query or an
// observability RPC crosses: fixed input, golden output. A change here is a
// wire-format change — every deployed peer and every journaled batch
// disagrees with the new build.
func TestABI(t *testing.T) {
	schema := testSchema(t) // A, B
	batch, err := EncodeBatch(schema, []stream.Tuple{{"a1", "b1"}, {"", "b"}, {"a3", ""}})
	if err != nil {
		t.Fatal(err)
	}
	// A default-config server's Stats reply after one 1µs ingest.
	var quiet telemetry.Set
	quiet.Observe(telemetry.RPCIngest, time.Microsecond)
	frame := func(f proto.Frame) []byte {
		out, err := proto.AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"IMPB header", stream.BinaryHeader(schema), "IMPB\x01\x02\x01A\x01B"},
		{"IMPB 3-record batch", batch, "IMPB\x01\x02\x01A\x01B" + "\x02a1\x02b1" + "\x00\x01b" + "\x02a3\x00"},
		{"TIngest frame", frame(proto.Frame{Type: proto.TIngest, ID: 7, Payload: batch}),
			"\x25\x00\x00\x00" + "\x01\x01" + "\x07\x00\x00\x00\x00\x00\x00\x00" + "\xea\xc0\x6a\xc3" + string(batch)},
		{"TIngest frame, traced", frame(proto.Frame{Type: proto.TIngest, ID: 7, TC: proto.TraceContext{Trace: 0x0102, Parent: 0x0304}, Payload: batch}),
			"\x35\x00\x00\x00" + "\x81\x01" + "\x07\x00\x00\x00\x00\x00\x00\x00" + "\x96\x4c\x15\x5c" +
				"\x02\x01\x00\x00\x00\x00\x00\x00" + "\x04\x03\x00\x00\x00\x00\x00\x00" + string(batch)},
		{"IngestAck", proto.IngestAck{Tuples: 3}.Encode(), "\x03\x00\x00\x00\x00\x00\x00\x00"},
		{"IngestAck frame", frame(proto.Frame{Type: proto.TOK, ID: 7, Payload: proto.IngestAck{Tuples: 3}.Encode()}),
			"\x16\x00\x00\x00" + "\x01\x10" + "\x07\x00\x00\x00\x00\x00\x00\x00" + "\xe3\x35\x6c\x57" + "\x03\x00\x00\x00\x00\x00\x00\x00"},
		{"ClusterStatus", proto.ClusterStatus{VirtualPartitions: 64, Leaves: []proto.LeafStatus{
			{Addr: "h:1", State: proto.LeafDown, Epoch: 2, Parts: 22, Journaled: 5, Acked: 3},
		}}.Encode(),
			"\x40\x00\x00\x00" + "\x01\x00\x00\x00" + "\x03\x00\x00\x00h:1" + "\x01" + "\x02\x00\x00\x00\x00\x00\x00\x00" +
				"\x16\x00\x00\x00" + "\x05\x00\x00\x00\x00\x00\x00\x00" + "\x03\x00\x00\x00\x00\x00\x00\x00"},
		{"SnapshotResult", proto.SnapshotResult{Tuples: 3, Kind: "nips", Sketch: []byte("NIPS\x01")}.Encode(),
			"\x03\x00\x00\x00\x00\x00\x00\x00" + "\x04\x00\x00\x00nips" + "\x05\x00\x00\x00NIPS\x01"},
		{"Health dump", obs.EncodeHealth([]imps.HealthReport{{
			Stmt: 1, Kind: "nips", Query: "q", Shared: true, Tuples: 3, MemEntries: 2, MemBytes: 5,
			BitmapFill: 0.5, LeftmostZero: 1, FringeTracked: 1, FringePairs: 2, FringeTombstones: 3,
			FringeEvictions: 4, FringeWidth: 5, RelErr: 0.25,
		}}),
			"IMPH\x01" + "\x01\x00\x00\x00" + "\x01\x00\x00\x00" + "\x04\x00\x00\x00nips" + "\x01\x00\x00\x00q" + "\x01" +
				le64(3) + le64(2) + le64(5) + le64(math.Float64bits(0.5)) + le64(math.Float64bits(1)) +
				le64(1) + le64(2) + le64(3) + le64(4) + le64(5) + le64(math.Float64bits(0.25))},
		{"Span dump", obs.EncodeSpans([]obs.Span{{Seq: 1, Kind: obs.SpanApply, Arg: -1, Start: 2, Dur: 3, Units: 4}}),
			"IMPS\x01" + "\x01\x00\x00\x00" + le64(1) + "\x02" + "\xff\xff\xff\xff" + le64(2) + le64(3) + le64(4)},
		{"Fleet trace", obs.EncodeFleetTrace([]obs.FleetSpan{{Node: "coord", Span: obs.Span{
			Seq: 1, Kind: obs.SpanDeliver, Arg: 2, Start: 3, Dur: 4, Units: 5, Trace: 6, ID: 7,
		}}}),
			"IMPF\x01" + "\x01\x00\x00\x00" + "\x05\x00\x00\x00coord" + le64(1) + "\x06" + "\x02\x00\x00\x00" +
				le64(3) + le64(4) + le64(5) + le64(6) + le64(0) + le64(7)},
		{"Telemetry snapshot", quiet.Snapshot().Encode(),
			"IMPT\x05" + strings.Repeat(le64(0), 9) + "\x00\x00\x00\x00" + "\x0a\x00\x00\x00" + "\x32\x00\x00\x00" +
				strings.Repeat(le64(0), 10) + le64(1) + strings.Repeat(le64(0), 39) + strings.Repeat(le64(0), 9*50) +
				"\x00\x00\x00\x00" + strings.Repeat(le64(0), 5) + "\x00\x00\x00\x00"},
	} {
		if string(tc.got) != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, tc.got, tc.want)
		}
	}
}
