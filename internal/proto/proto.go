// Package proto is the wire protocol of the serving layer: length-prefixed
// binary frames over TCP carrying the RPCs of the ingest/query server
// (IngestBatch, Query, SnapshotMerge, Stats, Health, Trace) and their
// responses.
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
	// IMPS encoding); an untraced server answers with an empty dump.
	TTrace Type = 0x06
	// TUDPAck asks for the cumulative state of one UDP ingest source: the
	// datagram lane's acknowledgements travel over the TCP control
	// connection as ordinary request/response polls, so the request/reply
	// protocol stays strictly client-initiated.
	TUDPAck Type = 0x07
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
	// TAuth establishes a tenant session: the payload names a tenant and
	// carries its HMAC connect-token, and a TOK reply pins the connection to
	// that tenant for its remaining life — every later request on the
	// connection reads and writes that tenant's engine. A connection that
	// never sends TAuth serves the default tenant, which is how servers
	// without configured tenants stay wire-compatible with older clients.
	// A pinned connection rejects a second TAuth (sessions do not migrate).
	TAuth Type = 0x0b

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
	// TQuota is the admission-control refusal: the batch would exceed the
	// connection's tenant quota (ingest rate or memory budget) and was NOT
	// enqueued — no partial state was created. Unlike TBusy, which signals a
	// transient full queue, TQuota signals a policy limit: the payload names
	// the quota hit and hints when capacity may return. Neighbour tenants
	// are unaffected, which is the reply's whole point.
	TQuota Type = 0x14
)

// String names the message type for error reports.
func (t Type) String() string {
	switch t {
	case TIngest:
		return "IngestBatch"
	case TQuery:
		return "Query"
	case TMerge:
		return "SnapshotMerge"
	case TStats:
		return "Stats"
	case THealth:
		return "Health"
	case TTrace:
		return "Trace"
	case TUDPAck:
		return "UDPAck"
	case TSnapshot:
		return "Snapshot"
	case TCluster:
		return "Cluster"
	case TBoot:
		return "Boot"
	case TAuth:
		return "Auth"
	case TOK:
		return "OK"
	case TResult:
		return "Result"
	case TError:
		return "Error"
	case TBusy:
		return "Busy"
	case TQuota:
		return "Quota"
	}
	return fmt.Sprintf("Type(0x%02x)", uint8(t))
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
	if extra == 0 {
		dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(f.Payload, castagnoli))
		return append(dst, f.Payload...), nil
	}
	var tcb [traceContextLen]byte
	binary.LittleEndian.PutUint64(tcb[0:], f.TC.Trace)
	binary.LittleEndian.PutUint64(tcb[8:], f.TC.Parent)
	sum := crc32.Checksum(tcb[:], castagnoli)
	sum = crc32.Update(sum, castagnoli, f.Payload)
	dst = binary.LittleEndian.AppendUint32(dst, sum)
	dst = append(dst, tcb[:]...)
	return append(dst, f.Payload...), nil
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
// with stream.NewBinaryReader; they have no codec here.

// QueryReq asks for the answer of the statement at the given registration
// index.
type QueryReq struct {
	Stmt uint32
}

// Encode serializes the request payload.
func (q QueryReq) Encode() []byte {
	e := wire.NewEncoder(4)
	e.U32(q.Stmt)
	return e.Bytes()
}

// DecodeQueryReq parses a TQuery payload.
func DecodeQueryReq(data []byte) (QueryReq, error) {
	d := wire.NewDecoder(data)
	q := QueryReq{Stmt: d.U32()}
	if err := d.Done(); err != nil {
		return QueryReq{}, fmt.Errorf("proto: query request: %w", err)
	}
	return q, nil
}

// QueryResult is the answer to a QueryReq: the statement's current count
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
func (a IngestAck) Encode() []byte {
	e := wire.NewEncoder(8)
	e.I64(a.Tuples)
	return e.Bytes()
}

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

// maxTenantLen bounds a tenant name on the wire; maxTokenLen bounds the
// connect-token (a hex HMAC-SHA256 is 64 bytes, leave headroom for other
// token schemes).
const (
	maxTenantLen = 256
	maxTokenLen  = 1024
)

// AuthReq is the TAuth request payload: the tenant to pin the connection to
// and its connect-token (tenant.Token's HMAC, or empty against a server
// running without a token key).
type AuthReq struct {
	Tenant string
	Token  string
}

// Encode serializes the request payload.
func (a AuthReq) Encode() []byte {
	e := wire.NewEncoder(8 + len(a.Tenant) + len(a.Token))
	e.Str(a.Tenant)
	e.Str(a.Token)
	return e.Bytes()
}

// DecodeAuthReq parses a TAuth payload.
func DecodeAuthReq(data []byte) (AuthReq, error) {
	d := wire.NewDecoder(data)
	a := AuthReq{Tenant: d.Str(maxTenantLen), Token: d.Str(maxTokenLen)}
	if err := d.Done(); err != nil {
		return AuthReq{}, fmt.Errorf("proto: auth request: %w", err)
	}
	return a, nil
}

// Quota is the admission-control refusal payload: which quota the batch hit
// and a hint for when capacity may return (zero when the limit is not
// time-based, e.g. a memory budget).
type Quota struct {
	Msg        string
	RetryAfter time.Duration
}

// Encode serializes the refusal payload (millisecond resolution, like Busy).
func (q Quota) Encode() []byte {
	ms := q.RetryAfter.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > 1<<31 {
		ms = 1 << 31
	}
	e := wire.NewEncoder(8 + len(q.Msg))
	e.U32(uint32(ms))
	e.Str(q.Msg)
	return e.Bytes()
}

// DecodeQuota parses a TQuota payload.
func DecodeQuota(data []byte) (Quota, error) {
	d := wire.NewDecoder(data)
	q := Quota{RetryAfter: time.Duration(d.U32()) * time.Millisecond, Msg: d.Str(maxErrorLen)}
	if err := d.Done(); err != nil {
		return Quota{}, fmt.Errorf("proto: quota reply: %w", err)
	}
	return q, nil
}

// Busy is the backpressure reply payload: the suggested delay before the
// client retries the batch.
type Busy struct {
	RetryAfter time.Duration
}

// Encode serializes the backpressure payload (millisecond resolution).
func (b Busy) Encode() []byte {
	ms := b.RetryAfter.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > 1<<31 {
		ms = 1 << 31
	}
	e := wire.NewEncoder(4)
	e.U32(uint32(ms))
	return e.Bytes()
}

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

// DecodeError parses a TError payload.
func DecodeError(data []byte) (string, error) {
	d := wire.NewDecoder(data)
	msg := d.Str(maxErrorLen)
	if err := d.Done(); err != nil {
		return "", fmt.Errorf("proto: error reply: %w", err)
	}
	return msg, nil
}
