// Package client dials an impserved server and speaks internal/proto: a
// small connection pool with request pipelining (responses matched to
// requests by id, so many calls can be in flight per connection),
// per-request deadlines, and retry with exponential backoff where a retry
// is safe.
//
// Retry policy, by RPC:
//
//   - IngestBatch: a backpressure reply (the server refused the batch
//     before enqueueing it) is always safe to retry and is retried with
//     backoff up to Options.BusyRetries times. A connection failure after
//     the request was written is NOT retried — the batch may or may not
//     have been enqueued, and re-sending could double-count; the error is
//     returned to the caller, whose recovery story is the server-side
//     checkpoint/replay contract.
//   - Query, Stats, Health, Trace, Snapshot and Cluster are read-only and
//     idempotent and are retried across redials on connection failures.
//   - SnapshotMerge is not idempotent (merging twice double-counts) and is
//     never retried on ambiguous failures.
//
// Every dial runs a handshake chain before the connection joins the pool:
// a boot step (proto.TBoot) that records the server incarnation's nonce on
// the connection, then — for DialTenant clients — an auth step
// (proto.TAuth) that pins the session to its tenant. Because the chain
// runs on EVERY dial, a transparent mid-stream redial of a dead pool slot
// re-establishes the whole session: it can never silently fall back to the
// default tenant. The fenced variants (IngestFenced, QueryFenced,
// SnapshotFenced) compare the boot nonce before writing anything, so a
// stateful feeder can guarantee its requests never reach a server that
// silently restarted from an older checkpoint behind the redial; see
// ErrIncarnation.
//
// A quota refusal (proto.TQuota, multi-tenant servers) is terminal for the
// call: the batch was refused at admission with no partial state anywhere,
// and the client does not retry it — see ErrQuota.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"implicate/internal/imps"
	"implicate/internal/obs"
	"implicate/internal/proto"
	"implicate/internal/stream"
	"implicate/internal/telemetry"
)

// ErrBackpressure is returned when an ingest batch was refused with busy
// replies more times than Options.BusyRetries allows. The batch was never
// enqueued; the caller may retry later.
var ErrBackpressure = errors.New("client: server backpressure persisted")

// RemoteError is a failure the server reported for one request; the
// connection remains usable.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "client: server: " + e.Msg }

// ErrQuota matches (errors.Is) an ingest refusal by the session tenant's
// admission quota. Unlike backpressure, it is NOT absorbed with retries:
// the refusal is the tenant's own budget speaking, not transient load, and
// re-sending on the server's schedule is the caller's policy decision. The
// concrete error is a *QuotaRefusal carrying the server's retry hint.
var ErrQuota = errors.New("client: tenant quota exceeded")

// QuotaRefusal is the concrete error behind ErrQuota: the server's
// admission refusal for one batch. The batch was never planned or
// enqueued — no partial engine state exists. RetryAfter is the server's
// hint; zero means retrying cannot help until tenant state changes (a
// memory ceiling, not a rate).
type QuotaRefusal struct {
	Msg        string
	RetryAfter time.Duration
}

func (e *QuotaRefusal) Error() string { return "client: quota: " + e.Msg }

// Is makes errors.Is(err, ErrQuota) match.
func (e *QuotaRefusal) Is(target error) bool { return target == ErrQuota }

// Options tune a client. The zero value is usable.
type Options struct {
	// Conns is the connection pool size. Default 2.
	Conns int
	// DialTimeout bounds connection establishment. Default 5s.
	DialTimeout time.Duration
	// RequestTimeout bounds one request/response round trip. Default 30s.
	RequestTimeout time.Duration
	// BusyRetries bounds how many backpressure replies one IngestBatch
	// call absorbs before giving up with ErrBackpressure; negative means
	// retry indefinitely. Default 256.
	BusyRetries int
	// NetRetries bounds redial attempts for idempotent requests. Default 2.
	NetRetries int
	// RetryBase is the first backoff delay; it doubles per attempt up to
	// RetryCap. Defaults 2ms and 500ms.
	RetryBase time.Duration
	RetryCap  time.Duration
}

func (o Options) withDefaults() Options {
	if o.Conns == 0 {
		o.Conns = 2
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.BusyRetries == 0 {
		o.BusyRetries = 256
	}
	if o.NetRetries == 0 {
		o.NetRetries = 2
	}
	if o.RetryBase == 0 {
		o.RetryBase = 2 * time.Millisecond
	}
	if o.RetryCap == 0 {
		o.RetryCap = 500 * time.Millisecond
	}
	return o
}

// Client is a pooled connection to one server. Safe for concurrent use.
type Client struct {
	addr   string
	schema *stream.Schema
	opt    Options
	// tenant/token, when tenant is non-empty, add the auth step to every
	// dial's handshake chain (DialTenant sets them).
	tenant string
	token  string

	mu     sync.Mutex
	conns  []*conn
	closed bool
	rr     atomic.Uint64
}

// Dial connects to addr. schema is required for IngestBatch and may be nil
// for query/merge/stats-only clients. The first connection is established
// eagerly so configuration errors surface here. The session serves the
// server's implicit default tenant; see DialTenant for namespaced
// sessions.
func Dial(addr string, schema *stream.Schema, opt Options) (*Client, error) {
	return DialTenant(addr, schema, "", "", opt)
}

// DialTenant connects like Dial and pins every pooled connection to the
// named tenant: the dial handshake chain runs a TAuth step after the boot
// step, presenting token (minted by the server operator from the shared
// key). The chain runs on every dial — the eager first connection here AND
// every transparent redial of a dead pool slot — so a connection the pool
// hands out is always authenticated; a mid-stream redial can never
// silently serve the default tenant. An empty tenantName skips the auth
// step entirely (plain Dial).
func DialTenant(addr string, schema *stream.Schema, tenantName, token string, opt Options) (*Client, error) {
	opt = opt.withDefaults()
	if opt.Conns < 1 {
		return nil, fmt.Errorf("client: pool size %d must be >= 1", opt.Conns)
	}
	cl := &Client{addr: addr, schema: schema, opt: opt, tenant: tenantName, token: token, conns: make([]*conn, opt.Conns)}
	c, err := cl.dial()
	if err != nil {
		return nil, err
	}
	cl.conns[0] = c
	return cl, nil
}

// Close closes every pooled connection; in-flight requests fail.
func (cl *Client) Close() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.closed = true
	for i, c := range cl.conns {
		if c != nil {
			c.close(errors.New("client: closed"))
			cl.conns[i] = nil
		}
	}
	return nil
}

// dial establishes one connection and runs the full handshake chain on it
// before any caller sees it. Each step is a round trip; a step failure
// kills the connection, so the pool never holds a half-established
// session.
func (cl *Client) dial() (*conn, error) {
	nc, err := net.DialTimeout("tcp", cl.addr, cl.opt.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	c := &conn{nc: nc, pending: make(map[uint64]chan proto.Frame)}
	c.w = proto.NewWriter(nc, func(err error) { c.close(fmt.Errorf("client: write: %w", err)) })
	go c.readLoop()
	for _, step := range []func(*conn) error{cl.bootStep, cl.authStep} {
		if err := step(c); err != nil {
			c.close(err)
			return nil, err
		}
	}
	return c, nil
}

// bootStep learns the server incarnation behind a fresh connection. A TCP
// connection can never outlive its server process, so the nonce read here
// identifies the incarnation for the connection's whole life — the
// invariant the fenced calls build on.
func (cl *Client) bootStep(c *conn) error {
	f, err := c.roundTrip(proto.TBoot, nil, cl.opt.DialTimeout)
	if err != nil {
		return fmt.Errorf("client: boot handshake: %w", err)
	}
	if f.Type != proto.TResult {
		return fmt.Errorf("client: unexpected %s reply to boot handshake", f.Type)
	}
	boot, err := proto.DecodeBoot(f.Payload)
	if err != nil {
		return err
	}
	c.boot = boot.Nonce
	return nil
}

// authStep pins a fresh connection to the client's tenant — a no-op for
// plain Dial sessions. Running inside the dial chain (not once at Dial) is
// what makes the pool's redials safe: every connection authenticates
// before it carries a single request.
func (cl *Client) authStep(c *conn) error {
	if cl.tenant == "" {
		return nil
	}
	f, err := c.roundTrip(proto.TAuth, proto.AuthReq{Tenant: cl.tenant, Token: cl.token}.Encode(), cl.opt.DialTimeout)
	if err != nil {
		return fmt.Errorf("client: auth handshake: %w", err)
	}
	switch f.Type {
	case proto.TOK:
		return nil
	case proto.TError:
		msg, derr := proto.DecodeError(f.Payload)
		if derr != nil {
			return derr
		}
		return fmt.Errorf("client: auth handshake: %s", msg)
	}
	return fmt.Errorf("client: unexpected %s reply to auth handshake", f.Type)
}

// getConn returns a live pooled connection, dialing a replacement for a
// dead slot.
func (cl *Client) getConn() (*conn, error) {
	slot := int(cl.rr.Add(1)) % cl.opt.Conns
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, errors.New("client: closed")
	}
	c := cl.conns[slot]
	if c != nil && !c.isDead() {
		cl.mu.Unlock()
		return c, nil
	}
	cl.mu.Unlock()
	// Dial outside the lock; racing replacements just cost a connection.
	nc, err := cl.dial()
	if err != nil {
		return nil, err
	}
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		nc.close(errors.New("client: closed"))
		return nil, errors.New("client: closed")
	}
	if cur := cl.conns[slot]; cur != nil && !cur.isDead() {
		// Another caller already replaced the slot; use theirs.
		cl.mu.Unlock()
		nc.close(errors.New("client: redundant dial"))
		return cur, nil
	}
	if old := cl.conns[slot]; old != nil {
		old.close(errors.New("client: replaced"))
	}
	cl.conns[slot] = nc
	cl.mu.Unlock()
	return nc, nil
}

// call performs one round trip on one connection.
func (cl *Client) call(t proto.Type, payload []byte) (proto.Frame, error) {
	c, err := cl.getConn()
	if err != nil {
		return proto.Frame{}, err
	}
	return c.roundTrip(t, payload, cl.opt.RequestTimeout)
}

// backoff sleeps for the attempt-th delay of the exponential schedule,
// honoring an optional server hint as the floor.
func (cl *Client) backoff(attempt int, hint time.Duration) {
	d := cl.opt.RetryBase << uint(min(attempt, 16))
	if d > cl.opt.RetryCap {
		d = cl.opt.RetryCap
	}
	if hint > d {
		d = hint
	}
	time.Sleep(d)
}

// callIdempotent retries call across redials on connection failures.
func (cl *Client) callIdempotent(t proto.Type, payload []byte) (proto.Frame, error) {
	var lastErr error
	for attempt := 0; attempt <= cl.opt.NetRetries; attempt++ {
		if attempt > 0 {
			cl.backoff(attempt-1, 0)
		}
		f, err := cl.call(t, payload)
		if err == nil {
			return f, nil
		}
		lastErr = err
	}
	return proto.Frame{}, lastErr
}

// EncodeBatch serializes tuples in the ingest wire encoding (the stream
// package's binary format, schema header included). Useful for encoding
// once and sending to several servers.
func EncodeBatch(schema *stream.Schema, tuples []stream.Tuple) ([]byte, error) {
	if schema == nil {
		return nil, errors.New("client: ingest requires a schema")
	}
	return stream.EncodeBinaryBatch(schema, tuples)
}

// IngestBatch sends tuples to the server, absorbing backpressure replies
// with retry-and-backoff. On success every tuple was acknowledged as
// enqueued. A connection failure mid-request is returned as-is (see the
// package comment for why it is not retried).
func (cl *Client) IngestBatch(tuples []stream.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	payload, err := EncodeBatch(cl.schema, tuples)
	if err != nil {
		return err
	}
	return cl.IngestEncoded(payload, int64(len(tuples)))
}

// IngestEncoded sends an already EncodeBatch-serialized batch of n tuples.
func (cl *Client) IngestEncoded(payload []byte, n int64) error {
	for attempt := 0; ; attempt++ {
		f, err := cl.call(proto.TIngest, payload)
		if err != nil {
			return err
		}
		done, err := cl.ingestReply(f, n, attempt)
		if done || err != nil {
			return err
		}
	}
}

// ingestReply interprets one reply to an ingest request: done reports the
// batch acknowledged, a false done with a nil error means the batch was
// refused with backpressure (absorbed here with backoff) and must be
// re-sent.
func (cl *Client) ingestReply(f proto.Frame, n int64, attempt int) (done bool, err error) {
	switch f.Type {
	case proto.TOK:
		ack, err := proto.DecodeIngestAck(f.Payload)
		if err != nil {
			return true, err
		}
		if ack.Tuples != n {
			return true, fmt.Errorf("client: server acknowledged %d of %d tuples", ack.Tuples, n)
		}
		return true, nil
	case proto.TBusy:
		if cl.opt.BusyRetries >= 0 && attempt >= cl.opt.BusyRetries {
			return true, fmt.Errorf("%w after %d attempts", ErrBackpressure, attempt+1)
		}
		busy, err := proto.DecodeBusy(f.Payload)
		if err != nil {
			return true, err
		}
		cl.backoff(attempt, busy.RetryAfter)
		return false, nil
	case proto.TQuota:
		q, err := proto.DecodeQuota(f.Payload)
		if err != nil {
			return true, err
		}
		return true, &QuotaRefusal{Msg: q.Msg, RetryAfter: q.RetryAfter}
	case proto.TError:
		return true, remoteError(f)
	}
	return true, fmt.Errorf("client: unexpected %s reply to ingest", f.Type)
}

// ErrIncarnation is returned by the fenced calls when the connection the
// pool offers reaches a different server incarnation than the caller
// fenced against — the server restarted (losing state back to its last
// checkpoint) and the pool transparently redialed it. The caller's state
// and the server's have silently diverged; re-sending cannot help, the
// caller must re-verify the server's state before feeding it anything.
var ErrIncarnation = errors.New("client: server incarnation changed")

// Boot returns the incarnation nonce of a live pooled connection, dialing
// one if needed. Callers fence subsequent sends against this value.
func (cl *Client) Boot() (uint64, error) {
	c, err := cl.getConn()
	if err != nil {
		return 0, err
	}
	return c.boot, nil
}

// callFenced performs one round trip pinned to the given server
// incarnation: the connection's handshake nonce is compared BEFORE any
// bytes are written, so a request can never reach a restarted server. The
// pool may still redial a dead slot — a redial to the same incarnation
// (a transient network failure) passes the fence and proceeds normally.
func (cl *Client) callFenced(t proto.Type, payload []byte, boot uint64) (proto.Frame, error) {
	c, err := cl.getConn()
	if err != nil {
		return proto.Frame{}, err
	}
	if c.boot != boot {
		return proto.Frame{}, fmt.Errorf("%w: connection reached incarnation %016x, fenced to %016x", ErrIncarnation, c.boot, boot)
	}
	return c.roundTrip(t, payload, cl.opt.RequestTimeout)
}

// callFencedIdempotent retries callFenced across redials on connection
// failures; a fence mismatch is permanent and returned immediately.
func (cl *Client) callFencedIdempotent(t proto.Type, payload []byte, boot uint64) (proto.Frame, error) {
	var lastErr error
	for attempt := 0; attempt <= cl.opt.NetRetries; attempt++ {
		if attempt > 0 {
			cl.backoff(attempt-1, 0)
		}
		f, err := cl.callFenced(t, payload, boot)
		if err == nil {
			return f, nil
		}
		if errors.Is(err, ErrIncarnation) {
			return proto.Frame{}, err
		}
		lastErr = err
	}
	return proto.Frame{}, lastErr
}

// IngestFenced is IngestEncoded fenced to one server incarnation (see
// Boot): a batch is only ever written to a connection whose handshake
// nonce matches boot, so a server that silently restarted — dropping
// state back to its last checkpoint — can never absorb a batch meant for
// its predecessor. Stateful feeders that track per-server offsets (the
// coordinator's journal replay) need this: an offset is only meaningful
// against the incarnation it was established with.
func (cl *Client) IngestFenced(payload []byte, n int64, boot uint64) error {
	return cl.IngestFencedTraced(payload, n, boot, proto.TraceContext{})
}

// IngestFencedTraced is IngestFenced with a trace context stamped on the
// ingest frame: the receiving server parents the batch's plan, dispatch and
// apply spans under tc, so a coordinator's delivery span adopts the whole
// leaf-side story of each routed batch. A zero context sends the exact
// pre-trace wire bytes; a valid one sets the traced frame flag, which only
// trace-aware servers accept — callers stamp a context only when they know
// the peer speaks it (the coordinator arms tracing fleet-wide, never
// per-leaf).
func (cl *Client) IngestFencedTraced(payload []byte, n int64, boot uint64, tc proto.TraceContext) error {
	for attempt := 0; ; attempt++ {
		c, err := cl.getConn()
		if err != nil {
			return err
		}
		if c.boot != boot {
			return fmt.Errorf("%w: connection reached incarnation %016x, fenced to %016x", ErrIncarnation, c.boot, boot)
		}
		f, err := c.roundTripTC(proto.TIngest, payload, tc, cl.opt.RequestTimeout)
		if err != nil {
			return err
		}
		done, err := cl.ingestReply(f, n, attempt)
		if done || err != nil {
			return err
		}
	}
}

// QueryFenced is Query fenced to one server incarnation: the result is
// guaranteed to describe the fenced incarnation's state, never a restarted
// successor's.
func (cl *Client) QueryFenced(stmt int, boot uint64) (proto.QueryResult, error) {
	f, err := cl.callFencedIdempotent(proto.TQuery, proto.QueryReq{Stmt: uint32(stmt)}.Encode(), boot)
	if err != nil {
		return proto.QueryResult{}, err
	}
	switch f.Type {
	case proto.TResult:
		return proto.DecodeQueryResult(f.Payload)
	case proto.TError:
		return proto.QueryResult{}, remoteError(f)
	}
	return proto.QueryResult{}, fmt.Errorf("client: unexpected %s reply to query", f.Type)
}

// SnapshotFenced is Snapshot fenced to one server incarnation.
func (cl *Client) SnapshotFenced(stmt int, boot uint64) (proto.SnapshotResult, error) {
	f, err := cl.callFencedIdempotent(proto.TSnapshot, proto.SnapshotReq{Stmt: uint32(stmt)}.Encode(), boot)
	if err != nil {
		return proto.SnapshotResult{}, err
	}
	switch f.Type {
	case proto.TResult:
		return proto.DecodeSnapshotResult(f.Payload)
	case proto.TError:
		return proto.SnapshotResult{}, remoteError(f)
	}
	return proto.SnapshotResult{}, fmt.Errorf("client: unexpected %s reply to snapshot", f.Type)
}

// PendingIngest is one in-flight IngestAsync batch. Wait must be called
// exactly once; until then the caller must keep the encoded payload
// unmodified (the pending request retains it for busy-retry resends).
type PendingIngest struct {
	cl      *Client
	c       *conn
	id      uint64
	ch      chan proto.Frame
	payload []byte
	n       int64
}

// IngestAsync sends an EncodeBatch-serialized batch of n tuples without
// waiting for the acknowledgement, enabling a window of pipelined batches
// per connection — the synchronous IngestEncoded pays a full round trip
// per batch, which caps throughput at batch-size ÷ RTT regardless of how
// fast the server is. Callers keep at most a bounded number of pendings
// open and Wait on the oldest before sending more.
func (cl *Client) IngestAsync(payload []byte, n int64) (*PendingIngest, error) {
	c, err := cl.getConn()
	if err != nil {
		return nil, err
	}
	id, ch, err := c.send(proto.TIngest, payload)
	if err != nil {
		return nil, err
	}
	return &PendingIngest{cl: cl, c: c, id: id, ch: ch, payload: payload, n: n}, nil
}

// Wait blocks for the batch's acknowledgement. A backpressure reply means
// the batch was NOT enqueued, so Wait absorbs it by re-sending
// synchronously through IngestEncoded's retry loop. On success every
// tuple was acknowledged as enqueued; the error contract matches
// IngestEncoded.
//
// Ordering caveat: a re-sent batch is applied after any pipelined
// successors the server already accepted. No queue-depth sizing on the
// client side can rule refusals out (acknowledgements confirm enqueueing,
// so the queue can be full of batches that were already acked when a new
// frame arrives). Producers that rely on per-connection tuple order must
// either run against a server configured with BlockOnFull — which never
// refuses, it stalls the reader instead — or keep the window at one.
func (p *PendingIngest) Wait() error {
	f, err := p.c.await(p.id, p.ch, proto.TIngest, p.cl.opt.RequestTimeout)
	if err != nil {
		return err
	}
	switch f.Type {
	case proto.TOK:
		ack, err := proto.DecodeIngestAck(f.Payload)
		if err != nil {
			return err
		}
		if ack.Tuples != p.n {
			return fmt.Errorf("client: server acknowledged %d of %d tuples", ack.Tuples, p.n)
		}
		return nil
	case proto.TBusy:
		busy, err := proto.DecodeBusy(f.Payload)
		if err != nil {
			return err
		}
		p.cl.backoff(0, busy.RetryAfter)
		return p.cl.IngestEncoded(p.payload, p.n)
	case proto.TQuota:
		q, err := proto.DecodeQuota(f.Payload)
		if err != nil {
			return err
		}
		return &QuotaRefusal{Msg: q.Msg, RetryAfter: q.RetryAfter}
	case proto.TError:
		return remoteError(f)
	default:
		return fmt.Errorf("client: unexpected %s reply to ingest", f.Type)
	}
}

// Query returns the current answer of the statement registered at index
// stmt on the server, together with the server's processed-tuple count.
func (cl *Client) Query(stmt int) (proto.QueryResult, error) {
	f, err := cl.callIdempotent(proto.TQuery, proto.QueryReq{Stmt: uint32(stmt)}.Encode())
	if err != nil {
		return proto.QueryResult{}, err
	}
	switch f.Type {
	case proto.TResult:
		return proto.DecodeQueryResult(f.Payload)
	case proto.TError:
		return proto.QueryResult{}, remoteError(f)
	}
	return proto.QueryResult{}, fmt.Errorf("client: unexpected %s reply to query", f.Type)
}

// SnapshotMerge ships a marshalled sketch for merging into the estimator of
// the statement registered at index stmt — the upstream hop of the §2
// aggregation tree.
func (cl *Client) SnapshotMerge(stmt int, sketch []byte) error {
	f, err := cl.call(proto.TMerge, proto.MergeReq{Stmt: uint32(stmt), Sketch: sketch}.Encode())
	if err != nil {
		return err
	}
	switch f.Type {
	case proto.TOK:
		return nil
	case proto.TError:
		return remoteError(f)
	}
	return fmt.Errorf("client: unexpected %s reply to merge", f.Type)
}

// Snapshot pulls the marshalled estimator state of the statement registered
// at index stmt, together with the server's applied-tuple count at the
// capture — the read direction of the §2 aggregation tree, merge-compatible
// with SnapshotMerge on another server. Coordinators answer it with their
// merged fleet state, so the call works the same against a leaf or a
// coordinator.
func (cl *Client) Snapshot(stmt int) (proto.SnapshotResult, error) {
	f, err := cl.callIdempotent(proto.TSnapshot, proto.SnapshotReq{Stmt: uint32(stmt)}.Encode())
	if err != nil {
		return proto.SnapshotResult{}, err
	}
	switch f.Type {
	case proto.TResult:
		return proto.DecodeSnapshotResult(f.Payload)
	case proto.TError:
		return proto.SnapshotResult{}, remoteError(f)
	}
	return proto.SnapshotResult{}, fmt.Errorf("client: unexpected %s reply to snapshot", f.Type)
}

// Cluster fetches a coordinator's membership view. Leaf servers answer it
// with an error frame (they do not implement the RPC).
func (cl *Client) Cluster() (proto.ClusterStatus, error) {
	f, err := cl.callIdempotent(proto.TCluster, nil)
	if err != nil {
		return proto.ClusterStatus{}, err
	}
	switch f.Type {
	case proto.TResult:
		return proto.DecodeClusterStatus(f.Payload)
	case proto.TError:
		return proto.ClusterStatus{}, remoteError(f)
	}
	return proto.ClusterStatus{}, fmt.Errorf("client: unexpected %s reply to cluster", f.Type)
}

// Ping performs one liveness round trip (a Health request whose reports are
// discarded) with its own timeout and NO retries — a health prober wants the
// failure, not a masked redial. Any decoded reply, error frames included,
// proves the server is alive and serving.
func (cl *Client) Ping(timeout time.Duration) error {
	c, err := cl.getConn()
	if err != nil {
		return err
	}
	_, err = c.roundTrip(proto.THealth, nil, timeout)
	return err
}

// Stats fetches the server's telemetry snapshot.
func (cl *Client) Stats() (telemetry.Snapshot, error) {
	f, err := cl.callIdempotent(proto.TStats, nil)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	switch f.Type {
	case proto.TResult:
		return telemetry.DecodeSnapshot(f.Payload)
	case proto.TError:
		return telemetry.Snapshot{}, remoteError(f)
	}
	return telemetry.Snapshot{}, fmt.Errorf("client: unexpected %s reply to stats", f.Type)
}

// Health fetches the server engine's per-statement estimator health
// reports, ordered by statement registration index.
func (cl *Client) Health() ([]imps.HealthReport, error) {
	f, err := cl.callIdempotent(proto.THealth, nil)
	if err != nil {
		return nil, err
	}
	switch f.Type {
	case proto.TResult:
		return obs.DecodeHealth(f.Payload)
	case proto.TError:
		return nil, remoteError(f)
	}
	return nil, fmt.Errorf("client: unexpected %s reply to health", f.Type)
}

// Trace fetches the server's span ring: the most recent traced events,
// oldest first. A server running without tracing returns an empty dump.
// Against a coordinator — which answers with an assembled fleet trace —
// the node labels are dropped; use FleetTrace to keep them.
func (cl *Client) Trace() ([]obs.Span, error) {
	f, err := cl.callIdempotent(proto.TTrace, nil)
	if err != nil {
		return nil, err
	}
	switch f.Type {
	case proto.TResult:
		if obs.IsFleetTrace(f.Payload) {
			fleet, err := obs.DecodeFleetTrace(f.Payload)
			if err != nil {
				return nil, err
			}
			spans := make([]obs.Span, len(fleet))
			for i := range fleet {
				spans[i] = fleet[i].Span
			}
			return spans, nil
		}
		return obs.DecodeSpans(f.Payload)
	case proto.TError:
		return nil, remoteError(f)
	}
	return nil, fmt.Errorf("client: unexpected %s reply to trace", f.Type)
}

// FleetTrace fetches a trace with node attribution. A coordinator answers
// with its assembled, causally-ordered fleet trace — every span labeled
// with the node that recorded it. A leaf answers with its own span dump,
// which is returned with empty node labels, so the call works the same
// against either kind of server.
func (cl *Client) FleetTrace() ([]obs.FleetSpan, error) {
	f, err := cl.callIdempotent(proto.TTrace, nil)
	if err != nil {
		return nil, err
	}
	switch f.Type {
	case proto.TResult:
		if obs.IsFleetTrace(f.Payload) {
			return obs.DecodeFleetTrace(f.Payload)
		}
		spans, err := obs.DecodeSpans(f.Payload)
		if err != nil {
			return nil, err
		}
		fleet := make([]obs.FleetSpan, len(spans))
		for i := range spans {
			fleet[i] = obs.FleetSpan{Span: spans[i]}
		}
		return fleet, nil
	case proto.TError:
		return nil, remoteError(f)
	}
	return nil, fmt.Errorf("client: unexpected %s reply to trace", f.Type)
}

func remoteError(f proto.Frame) error {
	msg, err := proto.DecodeError(f.Payload)
	if err != nil {
		return err
	}
	return &RemoteError{Msg: msg}
}

// conn is one pooled connection: a proto.Writer that every caller encodes
// its request into — pipelined requests share write syscalls, and a
// steady-state send allocates nothing — and a reader goroutine dispatching
// response frames to the pending map by request id.
type conn struct {
	nc     net.Conn
	w      *proto.Writer
	boot   uint64 // server incarnation nonce, set by the dial handshake
	nextID atomic.Uint64

	pmu     sync.Mutex
	pending map[uint64]chan proto.Frame
	err     error // sticky; set once when the connection dies
	once    sync.Once
}

func (c *conn) isDead() bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.err != nil
}

// close marks the connection dead, fails every pending request and stops
// the writer. The socket closes first, so requests still queued are dropped
// rather than waited on: their callers have already failed.
func (c *conn) close(cause error) {
	c.once.Do(func() {
		c.pmu.Lock()
		c.err = cause
		for id, ch := range c.pending {
			delete(c.pending, id)
			close(ch)
		}
		c.pmu.Unlock()
		c.nc.Close()
		c.w.Close()
	})
}

func (c *conn) readLoop() {
	fr := proto.NewFrameReader(c.nc)
	for {
		f, err := fr.Next()
		if err != nil {
			c.close(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		c.pmu.Lock()
		ch, ok := c.pending[f.ID]
		if ok {
			delete(c.pending, f.ID)
		}
		c.pmu.Unlock()
		if ok {
			// The payload aliases the FrameReader's buffer; the waiter may
			// consume it after the next read, so it gets its own copy.
			f.Payload = append([]byte(nil), f.Payload...)
			ch <- f
		}
		// Unmatched ids are responses whose caller timed out; drop them.
	}
}

// send registers a fresh request id and queues the request frame on the
// connection's writer. The returned channel yields the response (or closes
// when the connection dies); pass it to await.
func (c *conn) send(t proto.Type, payload []byte) (uint64, chan proto.Frame, error) {
	return c.sendTC(t, payload, proto.TraceContext{})
}

// sendTC is send with a trace context stamped on the frame. A zero context
// keeps the frame byte-identical to the pre-trace wire format; a valid one
// sets the traced flag, which only trace-aware servers accept.
func (c *conn) sendTC(t proto.Type, payload []byte, tc proto.TraceContext) (uint64, chan proto.Frame, error) {
	id := c.nextID.Add(1)
	ch := make(chan proto.Frame, 1)
	c.pmu.Lock()
	if c.err != nil {
		err := c.err
		c.pmu.Unlock()
		return 0, nil, err
	}
	c.pending[id] = ch
	c.pmu.Unlock()

	// A frame the writer refuses (oversize) fails this request alone; a
	// write error has already closed the connection through the fail hook.
	if err := c.w.Write(proto.Frame{Type: t, ID: id, TC: tc, Payload: payload}); err != nil {
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		return 0, nil, err
	}
	return id, ch, nil
}

// await blocks for the response to a send-registered request.
func (c *conn) await(id uint64, ch chan proto.Frame, t proto.Type, timeout time.Duration) (proto.Frame, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case f, ok := <-ch:
		if !ok {
			c.pmu.Lock()
			err := c.err
			c.pmu.Unlock()
			return proto.Frame{}, err
		}
		return f, nil
	case <-timer.C:
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		return proto.Frame{}, fmt.Errorf("client: %s request timed out after %v", t, timeout)
	}
}

func (c *conn) roundTrip(t proto.Type, payload []byte, timeout time.Duration) (proto.Frame, error) {
	return c.roundTripTC(t, payload, proto.TraceContext{}, timeout)
}

func (c *conn) roundTripTC(t proto.Type, payload []byte, tc proto.TraceContext, timeout time.Duration) (proto.Frame, error) {
	id, ch, err := c.sendTC(t, payload, tc)
	if err != nil {
		return proto.Frame{}, err
	}
	return c.await(id, ch, t, timeout)
}
