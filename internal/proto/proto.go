// Package proto is the wire protocol of the serving layer: length-prefixed
// binary frames over TCP carrying the requests of the ingest/query server
// and the coordinator (types 0x01–0x0c) and their responses (0x10–0x13).
// The type table (types, below the Type constants) is the one place a
// message type is declared: its name, whether a client may retry it, and
// the telemetry histogram it is observed in.
//
// Frame layout (all integers little-endian):
//
//	u32  frame length       (bytes after this field; headerLen..MaxFrame)
//	u8   protocol version   (Version, optionally | FlagTraced)
//	u8   message type       (Type)
//	u64  request id         (echoed verbatim in the response frame)
//	u32  CRC-32C            (over the payload region, trace context included)
//	u64  trace id           (only when FlagTraced is set)
//	u64  parent span id     (only when FlagTraced is set)
//	...  payload
//
// The request id lets clients pipeline: many requests may be in flight on
// one connection and responses are matched by id, not order. The CRC tags
// every payload so a flipped bit on the wire is a detected protocol error,
// never a silently wrong count — the same "no answer over a wrong answer"
// stance the checkpoint files take. Payload encodings reuse internal/wire,
// so every length field is validated before it sizes an allocation.
//
// A decoder that sees a malformed frame cannot resynchronize (the stream
// position is ambiguous); callers must drop the connection. FrameReader
// returns ErrMalformed wrapped with the reason for exactly that purpose.
package proto

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"implicate/internal/telemetry"
	"implicate/internal/wire"
)

// Version is the protocol version carried in every frame. Both ends reject
// frames with any other version: guessing at an unknown layout risks
// misparsing lengths and reading garbage as counts.
const Version = 1

// FlagTraced is OR'd into the version byte of a frame that carries a
// TraceContext: sixteen extra bytes (trace id, parent span id) at the start
// of the payload region, covered by the frame CRC like everything else.
// Untraced frames are byte-identical to the pre-trace protocol, which is
// the whole compatibility story: a peer that never stamps context emits
// frames an old peer parses unchanged, and a trace-unaware peer that
// receives a flagged frame rejects the version byte outright instead of
// misreading the context as payload. Context is therefore only stamped
// when tracing is armed on the sending side.
const FlagTraced = 0x80

// traceContextLen is the encoded TraceContext size: two u64s.
const traceContextLen = 16

// TraceContext identifies the position of a request in a distributed
// trace: the trace id names the end-to-end operation, the parent span id
// names the span on the sending node under which the receiver should
// parent its own spans. The zero value means "no context" — the receiver
// treats the request as a trace root.
type TraceContext struct {
	Trace  uint64
	Parent uint64
}

// Valid reports whether the context carries a trace (a zero trace id is
// the absent context, never stamped on the wire).
func (tc TraceContext) Valid() bool { return tc.Trace != 0 }

// MaxFrame bounds the length field: frames claiming more are rejected
// before any allocation. 64 MiB comfortably fits the largest ingest batch
// or marshalled sketch while keeping a corrupt length harmless.
const MaxFrame = 1 << 26

// headerLen is the framed byte count excluding the length prefix and the
// payload: version, type, request id, CRC.
const headerLen = 1 + 1 + 8 + 4

// Type identifies a message. Requests use the low range, responses 0x10+.
type Type uint8

const (
	// TIngest carries a binary-encoded tuple batch (the stream package's
	// IMPB format, header included) to be fed through the server's engine.
	TIngest Type = 0x01
	// TQuery asks for the current answer of one registered statement.
	TQuery Type = 0x02
	// TMerge ships a marshalled sketch to be merged into a statement's
	// estimator — the upstream hop of the paper's §2 aggregation tree.
	TMerge Type = 0x03
	// TStats asks for the server's telemetry snapshot.
	TStats Type = 0x04
	// THealth asks for the engine's per-statement estimator health reports
	// (the obs package's IMPH encoding).
	THealth Type = 0x05
	// TTrace asks for a dump of the server's span ring (the obs package's
	// IMPF encoding, node labels empty on a leaf); an untraced server
	// answers with an empty dump.
	TTrace Type = 0x06
	// 0x07 is reserved: it was the ack poll of a retired datagram ingest
	// lane. It is never reused, so a request from an older peer is refused
	// rather than misread.
	// TSnapshot asks for one statement's marshalled estimator state — the
	// pull direction of the §2 aggregation tree, which a coordinator uses
	// to fan a merge in from its leaves (coord.go).
	TSnapshot Type = 0x08
	// TCluster asks a coordinator for its membership view: per-leaf
	// liveness, recovery epochs and journal offsets. Leaf servers do not
	// answer it.
	TCluster Type = 0x09
	// TBoot asks for the server's boot nonce: a random value drawn once per
	// process start. A connection's nonce identifies the server incarnation
	// behind it for the connection's whole life (a restart necessarily drops
	// the connection), which is what lets stateful feeders fence their sends
	// against a server that silently restarted from an older checkpoint —
	// see client.IngestFenced.
	TBoot Type = 0x0a
	// 0x0b is reserved: it was the session request of retired multi-tenant
	// serving, and is never reused.
	// TReadout asks for one statement's readout: a small fixed-size record
	// per bitmap the statement's sketch has observed, the terms every
	// estimator read folds over (core.Readout). It is the fleet query path
	// (coord.go); a reader of a shared estimator may ask for one too, since
	// nothing is merged back.
	TReadout Type = 0x0c

	// TOK acknowledges an ingest or merge; ingest acks carry the accepted
	// tuple count.
	TOK Type = 0x10
	// TResult carries a query or stats response payload.
	TResult Type = 0x11
	// TError carries a request-level failure message. The connection
	// remains usable.
	TError Type = 0x12
	// TBusy is the explicit backpressure reply: the ingest queue is full
	// and the batch was NOT enqueued. The payload suggests a retry delay.
	// Every rejected batch is reported this way — the server never drops
	// an acknowledged batch and never silently drops an unacknowledged one.
	TBusy Type = 0x13
	// 0x14 is reserved: it was the quota refusal of retired multi-tenant
	// serving, and is never reused.
)

// typeInfo is one message type's row of the type table: every fact about a
// type that more than one package needs is declared here, once.
type typeInfo struct {
	// name names the type for error reports and tests.
	name string
	// idempotent marks a request a client may retry across a redial after
	// an ambiguous connection failure: answering it twice changes nothing.
	idempotent bool
	// rpc is the latency histogram the request is observed in, when
	// observed is set; a type without one (TCluster, responses) is not
	// instrumented.
	rpc      telemetry.RPC
	observed bool
}

// types is the type table, indexed by Type; an undeclared type's row is
// zero. 0x07, 0x0b and 0x14 are reserved (see the constants) and must stay
// undeclared.
var types = [256]typeInfo{
	TIngest:   {name: "IngestBatch", rpc: telemetry.RPCIngest, observed: true},
	TQuery:    {name: "Query", idempotent: true, rpc: telemetry.RPCQuery, observed: true},
	TMerge:    {name: "SnapshotMerge", rpc: telemetry.RPCMerge, observed: true},
	TStats:    {name: "Stats", idempotent: true, rpc: telemetry.RPCStats, observed: true},
	THealth:   {name: "Health", idempotent: true, rpc: telemetry.RPCHealth, observed: true},
	TTrace:    {name: "Trace", idempotent: true, rpc: telemetry.RPCTrace, observed: true},
	TSnapshot: {name: "Snapshot", idempotent: true, rpc: telemetry.RPCSnapshot, observed: true},
	TCluster:  {name: "Cluster", idempotent: true},
	TBoot:     {name: "Boot", idempotent: true, rpc: telemetry.RPCBoot, observed: true},
	// A readout is a query's read, shipped for the caller to fold: it is
	// observed as one, so the telemetry format has no RPC of its own.
	TReadout: {name: "Readout", idempotent: true, rpc: telemetry.RPCQuery, observed: true},
	TOK:      {name: "OK"},
	TResult:  {name: "Result"},
	TError:   {name: "Error"},
	TBusy:    {name: "Busy"},
}

// String names the message type for error reports.
func (t Type) String() string {
	if name := types[t].name; name != "" {
		return name
	}
	return fmt.Sprintf("Type(0x%02x)", uint8(t))
}

// Idempotent reports whether a request of type t may be retried across a
// redial after an ambiguous connection failure.
func (t Type) Idempotent() bool { return types[t].idempotent }

// RPC returns the latency histogram a request of type t is observed in; ok
// is false for a type that is not instrumented.
func (t Type) RPC() (rpc telemetry.RPC, ok bool) {
	return types[t].rpc, types[t].observed
}

// ErrMalformed is returned for any frame that cannot be proven intact:
// truncated, oversized, version-skewed, or failing its checksum. The
// connection it arrived on must be dropped.
var ErrMalformed = errors.New("proto: malformed frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame is one decoded message. TC is the trace context the frame carried
// (zero when the frame was untraced); Payload never includes the encoded
// context bytes.
type Frame struct {
	Type    Type
	ID      uint64
	TC      TraceContext
	Payload []byte
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. A valid f.TC sets FlagTraced on the version byte and prefixes the
// payload region with the encoded context.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	ver, extra := byte(Version), 0
	if f.TC.Valid() {
		ver |= FlagTraced
		extra = traceContextLen
	}
	if len(f.Payload) > MaxFrame-headerLen-extra {
		return dst, fmt.Errorf("proto: payload of %d bytes exceeds the %d-byte frame limit", len(f.Payload), MaxFrame)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(headerLen+extra+len(f.Payload)))
	dst = append(dst, ver, uint8(f.Type))
	dst = binary.LittleEndian.AppendUint64(dst, f.ID)
	dst = append(dst, 0, 0, 0, 0) // CRC placeholder
	// The CRC covers the payload region, context included; summing it out of
	// dst keeps the encode allocation-free (a local context array would
	// escape through the checksum).
	start := len(dst)
	if extra != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, f.TC.Trace)
		dst = binary.LittleEndian.AppendUint64(dst, f.TC.Parent)
	}
	dst = append(dst, f.Payload...)
	binary.LittleEndian.PutUint32(dst[start-4:], crc32.Checksum(dst[start:], castagnoli))
	return dst, nil
}

// WriteFrame encodes f and writes it with a single Write call, so frames
// from one goroutine never interleave on the connection.
func WriteFrame(w io.Writer, f Frame) error {
	buf, err := AppendFrame(make([]byte, 0, 4+headerLen+len(f.Payload)), f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// --- payload codecs ---
//
// Ingest request payloads are the stream package's binary batch encoding
// verbatim (magic, schema header, records) and are decoded by the server
// with stream.RecordArena.DecodeBinaryRecords; they have no codec here.

// StmtReq is the request payload of every RPC that addresses one registered
// statement and carries nothing else (TQuery, TSnapshot, TReadout): the
// statement's registration index.
type StmtReq struct {
	Stmt uint32
}

// Encode serializes the request payload.
func (q StmtReq) Encode() []byte {
	e := wire.NewEncoder(4)
	e.U32(q.Stmt)
	return e.Bytes()
}

// DecodeStmtReq parses a TQuery, TSnapshot or TReadout payload.
func DecodeStmtReq(data []byte) (StmtReq, error) {
	d := wire.NewDecoder(data)
	q := StmtReq{Stmt: d.U32()}
	if err := d.Done(); err != nil {
		return StmtReq{}, fmt.Errorf("proto: statement request: %w", err)
	}
	return q, nil
}

// QueryResult is the answer to a TQuery: the statement's current count
// under its mode and the number of tuples the engine has processed.
type QueryResult struct {
	Count  float64
	Tuples int64
}

// Encode serializes the result payload.
func (q QueryResult) Encode() []byte {
	e := wire.NewEncoder(16)
	e.F64(q.Count)
	e.I64(q.Tuples)
	return e.Bytes()
}

// DecodeQueryResult parses a TResult payload of a query.
func DecodeQueryResult(data []byte) (QueryResult, error) {
	d := wire.NewDecoder(data)
	q := QueryResult{Count: d.F64(), Tuples: d.I64()}
	if err := d.Done(); err != nil {
		return QueryResult{}, fmt.Errorf("proto: query result: %w", err)
	}
	return q, nil
}

// MergeReq ships a marshalled sketch to be merged into the statement at the
// given registration index.
type MergeReq struct {
	Stmt   uint32
	Sketch []byte
}

// Encode serializes the request payload.
func (m MergeReq) Encode() []byte {
	e := wire.NewEncoder(8 + len(m.Sketch))
	e.U32(m.Stmt)
	e.Blob(m.Sketch)
	return e.Bytes()
}

// DecodeMergeReq parses a TMerge payload. The sketch bytes alias data.
func DecodeMergeReq(data []byte) (MergeReq, error) {
	d := wire.NewDecoder(data)
	m := MergeReq{Stmt: d.U32(), Sketch: d.Blob(MaxFrame)}
	if err := d.Done(); err != nil {
		return MergeReq{}, fmt.Errorf("proto: merge request: %w", err)
	}
	return m, nil
}

// IngestAck acknowledges an enqueued batch with the tuple count accepted.
// An acknowledged batch is the server's to lose: it is either processed or
// covered by the drain-on-shutdown guarantee.
type IngestAck struct {
	Tuples int64
}

// Encode serializes the ack payload.
func (a IngestAck) Encode() []byte { return a.AppendTo(make([]byte, 0, 8)) }

// DecodeIngestAck parses a TOK payload of an ingest.
func DecodeIngestAck(data []byte) (IngestAck, error) {
	d := wire.NewDecoder(data)
	a := IngestAck{Tuples: d.I64()}
	if err := d.Done(); err != nil {
		return IngestAck{}, fmt.Errorf("proto: ingest ack: %w", err)
	}
	return a, nil
}

// Boot is the TBoot reply payload: the server incarnation's nonce.
type Boot struct {
	Nonce uint64
}

// NewBootNonce draws a fresh incarnation nonce for a process that serves
// TBoot. Randomness (not a counter or a clock) makes two incarnations of
// the same logical node — or two different nodes behind a recycled
// address — collide with negligible probability, no coordination needed.
func NewBootNonce() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("proto: boot nonce: %w", err)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Encode serializes the boot payload.
func (b Boot) Encode() []byte {
	e := wire.NewEncoder(8)
	e.U64(b.Nonce)
	return e.Bytes()
}

// DecodeBoot parses a TResult payload of a boot request.
func DecodeBoot(data []byte) (Boot, error) {
	d := wire.NewDecoder(data)
	b := Boot{Nonce: d.U64()}
	if err := d.Done(); err != nil {
		return Boot{}, fmt.Errorf("proto: boot reply: %w", err)
	}
	return b, nil
}

// Busy is the backpressure reply payload: the suggested delay before the
// client retries the batch.
type Busy struct {
	RetryAfter time.Duration
}

// Encode serializes the backpressure payload (millisecond resolution).
func (b Busy) Encode() []byte { return b.AppendTo(make([]byte, 0, 4)) }

// DecodeBusy parses a TBusy payload.
func DecodeBusy(data []byte) (Busy, error) {
	d := wire.NewDecoder(data)
	b := Busy{RetryAfter: time.Duration(d.U32()) * time.Millisecond}
	if err := d.Done(); err != nil {
		return Busy{}, fmt.Errorf("proto: busy reply: %w", err)
	}
	return b, nil
}

// maxErrorLen bounds a remote error message.
const maxErrorLen = 1 << 16

// EncodeError serializes a TError payload.
func EncodeError(msg string) []byte {
	if len(msg) > maxErrorLen {
		msg = msg[:maxErrorLen]
	}
	e := wire.NewEncoder(4 + len(msg))
	e.Str(msg)
	return e.Bytes()
}

// ErrorFrame builds the TError reply to request id.
func ErrorFrame(id uint64, msg string) Frame {
	return Frame{Type: TError, ID: id, Payload: EncodeError(msg)}
}

// DecodeError parses a TError payload.
func DecodeError(data []byte) (string, error) {
	d := wire.NewDecoder(data)
	msg := d.Str(maxErrorLen)
	if err := d.Done(); err != nil {
		return "", fmt.Errorf("proto: error reply: %w", err)
	}
	return msg, nil
}
