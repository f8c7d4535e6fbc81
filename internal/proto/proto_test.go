package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"implicate/internal/telemetry"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: TIngest, ID: 1, Payload: []byte("hello")},
		{Type: TQuery, ID: 1<<64 - 1, Payload: nil},
		{Type: TStats, ID: 0, Payload: bytes.Repeat([]byte{0xAB}, 1<<16)},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: round trip mismatch", i)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected io.EOF at frame boundary, got %v", err)
	}
}

func TestReadFrameRejectsCorruption(t *testing.T) {
	enc := func(f Frame) []byte {
		b, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := enc(Frame{Type: TIngest, ID: 7, Payload: []byte("payload bytes")})

	t.Run("bit flip in payload", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-2] ^= 0x40
		_, err := ReadFrame(bytes.NewReader(bad))
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("bit flip not detected: %v", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		_, err := ReadFrame(bytes.NewReader(good[:len(good)-1]))
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("truncation not detected: %v", err)
		}
	})
	t.Run("truncated length prefix", func(t *testing.T) {
		_, err := ReadFrame(bytes.NewReader(good[:2]))
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("truncated prefix not detected: %v", err)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = Version + 1
		_, err := ReadFrame(bytes.NewReader(bad))
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version skew not detected: %v", err)
		}
	})
	t.Run("implausible length", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(bad, MaxFrame+1)
		_, err := ReadFrame(bytes.NewReader(bad))
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "length") {
			t.Fatalf("oversize length not detected: %v", err)
		}
		binary.LittleEndian.PutUint32(bad, headerLen-1)
		if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("undersize length not detected: %v", err)
		}
	})
}

func TestAppendFrameRejectsOversizePayload(t *testing.T) {
	if _, err := AppendFrame(nil, Frame{Type: TIngest, Payload: make([]byte, MaxFrame-headerLen+1)}); err == nil {
		t.Fatal("oversize payload accepted")
	}
}

func TestPayloadCodecs(t *testing.T) {
	q, err := DecodeStmtReq(StmtReq{Stmt: 3}.Encode())
	if err != nil || q.Stmt != 3 {
		t.Fatalf("statement req: %+v %v", q, err)
	}
	r, err := DecodeQueryResult(QueryResult{Count: 42.5, Tuples: -1}.Encode())
	if err != nil || r.Count != 42.5 || r.Tuples != -1 {
		t.Fatalf("query result: %+v %v", r, err)
	}
	m, err := DecodeMergeReq(MergeReq{Stmt: 9, Sketch: []byte{1, 2, 3}}.Encode())
	if err != nil || m.Stmt != 9 || !bytes.Equal(m.Sketch, []byte{1, 2, 3}) {
		t.Fatalf("merge req: %+v %v", m, err)
	}
	a, err := DecodeIngestAck(IngestAck{Tuples: 1 << 40}.Encode())
	if err != nil || a.Tuples != 1<<40 {
		t.Fatalf("ingest ack: %+v %v", a, err)
	}
	b, err := DecodeBusy(Busy{RetryAfter: 250 * time.Millisecond}.Encode())
	if err != nil || b.RetryAfter != 250*time.Millisecond {
		t.Fatalf("busy: %+v %v", b, err)
	}
	msg, err := DecodeError(EncodeError("it broke"))
	if err != nil || msg != "it broke" {
		t.Fatalf("error: %q %v", msg, err)
	}

	// Trailing bytes poison every codec.
	if _, err := DecodeStmtReq(append(StmtReq{Stmt: 1}.Encode(), 0)); err == nil {
		t.Error("statement req trailing bytes accepted")
	}
	if _, err := DecodeMergeReq([]byte{1, 2}); err == nil {
		t.Error("truncated merge req accepted")
	}
	if _, err := DecodeError(nil); err == nil {
		t.Error("empty error payload accepted")
	}
}

// TestTypeStrings walks the type table: every declared type has a name no
// other type has, every undeclared one prints its number, no response is
// retried or instrumented, and every histogram a row names exists in the
// telemetry format.
func TestTypeStrings(t *testing.T) {
	seen := make(map[string]Type)
	for i := range 256 {
		typ := Type(i)
		in := types[typ]
		if in.name == "" {
			if in != (typeInfo{}) {
				t.Errorf("Type(0x%02x): row without a name", i)
			}
			if got, want := typ.String(), fmt.Sprintf("Type(0x%02x)", i); got != want {
				t.Errorf("undeclared type prints %q, want %q", got, want)
			}
			continue
		}
		if prev, dup := seen[in.name]; dup {
			t.Errorf("types 0x%02x and 0x%02x are both named %q", uint8(prev), i, in.name)
		}
		seen[in.name] = typ
		if got := typ.String(); got != in.name {
			t.Errorf("Type(0x%02x) prints %q, its row names it %q", i, got, in.name)
		}
		if in.observed && in.rpc >= telemetry.NumRPCs {
			t.Errorf("%s is observed in histogram %d, the telemetry format has %d", in.name, in.rpc, telemetry.NumRPCs)
		}
		if typ >= TOK && (in.observed || in.idempotent) {
			t.Errorf("response %s is marked retried or instrumented", in.name)
		}
	}
}
