// Package server is the network face of the query engine: a TCP server
// speaking internal/proto that feeds one engine from remote producers and
// answers implication queries, sketch merges and telemetry reads.
//
// Architecture: one accept loop, one reader and one writer goroutine per
// connection, one bounded ingest queue drained by one dispatcher goroutine,
// and one pipeline worker pool (internal/pipeline). Connection readers
// decode AND plan ingest batches — filters, projections and partition
// hashing run concurrently per connection — and hand the planned batches to
// the queue; the dispatcher feeds the pool in queue-arrival order, which is
// all the ordering the engine's estimators need for bit-identical-to-serial
// results (DESIGN.md §7). Replies flow through the per-connection
// proto.Writer, which coalesces pending acks into single writes (conn.go).
// When the queue is full the batch is refused with an explicit
// backpressure reply (proto.TBusy) and NOT enqueued — the client retries.
// (Pipelined producers that need strict per-connection ordering set
// Config.BlockOnFull instead: the reader then blocks for queue room, so no
// batch is ever refused and re-sent out of order.) An acknowledged batch is
// never dropped: graceful shutdown drains the queue through the pool
// before the final checkpoint is written.
//
// Reads never stall ingestion: Query and Stats answer under the server's
// read lock (plus the per-statement read locks of query.Statement.Count),
// while workers keep applying batches; only merges and checkpoint captures
// take the write lock, and captures first fence the pool so no task is in
// flight.
//
// Durability composes with the network path exactly as with file streams
// (DESIGN.md §8): the server checkpoints its engine every CheckpointEvery
// applied tuples and once more on graceful shutdown. The checkpoint offset
// is the engine's applied-tuple count; a producer recovering a crashed
// server replays its tuple sequence from that offset. Acknowledgements
// confirm enqueueing, not durability — durability is checkpoint + replay.
package server

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"implicate/internal/checkpoint"
	"implicate/internal/core"
	"implicate/internal/imps"
	"implicate/internal/obs"
	"implicate/internal/pipeline"
	"implicate/internal/proto"
	"implicate/internal/query"
	"implicate/internal/stream"
	"implicate/internal/telemetry"
)

// drainGrace is how long connection readers may keep serving requests after
// Close is called before their reads are unblocked.
const drainGrace = 200 * time.Millisecond

// Config configures a server. Schema and Engine are required; the engine's
// statements must be registered before Listen, and the engine must not be
// touched by the caller while the server runs (the server owns it until
// Close or Kill returns).
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:7171" or ":0".
	Addr string
	// Schema is the stream schema ingest batches must match.
	Schema *stream.Schema
	// Engine answers the server's queries and receives its tuples.
	Engine *query.Engine
	// QueueDepth bounds the ingest queue in batches; a full queue refuses
	// further batches with backpressure replies (or, under BlockOnFull,
	// holds their readers). Default 64.
	QueueDepth int
	// Workers is the pipeline worker pool size batches are fanned out to.
	// Zero selects GOMAXPROCS. Whatever the pool size, results are
	// bit-identical to a single-worker run.
	Workers int
	// MaxBatchTuples bounds one ingest batch; larger batches are rejected
	// as errors. Default 65536.
	MaxBatchTuples int
	// CheckpointPath, when non-empty, makes the server write the engine's
	// checkpoints there — every CheckpointEvery applied tuples and once on
	// graceful Close. Listen then refuses an engine with a statement
	// no checkpoint can capture (a library-only baseline's).
	CheckpointPath string
	// CheckpointEvery is the applied-tuple interval between periodic
	// checkpoints; zero checkpoints only on Close.
	CheckpointEvery int64
	// RetryAfter is the delay hint carried in backpressure replies.
	// Default 20ms.
	RetryAfter time.Duration
	// BlockOnFull switches ingest backpressure from busy-refusal to
	// blocking: when the queue is full the connection reader waits for room
	// instead of replying TBusy, so backpressure propagates through TCP
	// flow control. Pipelined producers that depend on per-connection
	// ordering need this — a busy-refused batch is re-sent behind its
	// already-pipelined successors, which reorders the stream even though
	// acknowledgements confirm enqueueing (the queue can be full of batches
	// that were already acked). The default (false) keeps explicit TBusy
	// replies, which synchronous request/response producers prefer.
	BlockOnFull bool
	// Logf, when non-nil, receives diagnostic messages (failed periodic
	// checkpoints, dropped connections).
	Logf func(format string, args ...any)
	// TraceSpans, when positive, enables the event tracer with a ring
	// holding that many spans (obs.DefaultSpans is the conventional size).
	// Zero disables tracing: no ring is allocated and the ingest path takes
	// no per-task clock reads. The Trace RPC then answers with an empty
	// dump.
	TraceSpans int

	// gate, when non-nil, is called by the dispatcher before each batch is
	// handed to the pool — a test hook for making queue states deterministic.
	gate func()
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatchTuples == 0 {
		c.MaxBatchTuples = 1 << 16
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 20 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is a running ingest/query server. Create with Listen.
type Server struct {
	cfg    Config
	ln     net.Listener
	tel    *telemetry.Set
	tracer *obs.Tracer // nil when tracing is disabled; nil-safe to record on

	// hdr is the canonical binary-stream header for cfg.Schema; an ingest
	// payload with this exact prefix has a verified schema (fast path in
	// decodeBatch). arity caches cfg.Schema.Len().
	hdr   []byte
	arity int

	// boot is this incarnation's nonce, drawn once at Listen and served
	// through the Boot RPC so stateful feeders can fence their sends against
	// a silent restart-from-checkpoint (see proto.TBoot).
	boot uint64

	// stmts caches the engine's statements, which are registered before
	// Listen and never change while the server runs.
	stmts []*query.Statement
	// mu is the read/write coordination point: queries and stats hold it
	// shared, merges and checkpoint captures exclusive. Workers never take
	// it.
	mu sync.RWMutex
	// pool applies the dispatched batches; queue holds admitted batches for
	// its dispatcher goroutine, the sole caller of Dispatch/Fence on the
	// live pool, which preserves the pool's ordering contract.
	pool  *pipeline.Pool
	queue *pipeline.Queue
	// periodic drives the checkpoint cadence; the capture runs under mu.
	// Zero-valued when checkpointing is off.
	periodic checkpoint.Periodic

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup

	draining  atomic.Bool
	killed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// Listen starts a server on cfg.Addr and begins serving.
func Listen(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Schema == nil {
		return nil, fmt.Errorf("server: nil schema")
	}
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: nil engine")
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("server: queue depth %d must be >= 1", cfg.QueueDepth)
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("server: worker count %d must be >= 1", cfg.Workers)
	}
	// The remaining knobs default on zero; a negative value is a caller
	// bug that would otherwise fail obscurely (every batch rejected, a
	// checkpoint per batch, a negative retry hint on the wire).
	if cfg.MaxBatchTuples < 1 {
		return nil, fmt.Errorf("server: max batch tuples %d must be >= 1", cfg.MaxBatchTuples)
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("server: checkpoint interval %d must be >= 0", cfg.CheckpointEvery)
	}
	if cfg.RetryAfter < 0 {
		return nil, fmt.Errorf("server: retry-after %v must be >= 0", cfg.RetryAfter)
	}
	if cfg.TraceSpans < 0 {
		return nil, fmt.Errorf("server: trace span capacity %d must be >= 0", cfg.TraceSpans)
	}
	s := &Server{
		cfg:   cfg,
		tel:   &telemetry.Set{},
		stmts: cfg.Engine.Statements(),
		conns: make(map[net.Conn]struct{}),
		hdr:   stream.BinaryHeader(cfg.Schema),
		arity: cfg.Schema.Len(),
	}
	s.tel.ConfigureWorkers(cfg.Workers)
	nonce, err := proto.NewBootNonce()
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.boot = nonce
	if cfg.TraceSpans > 0 {
		s.tracer = obs.NewTracer(cfg.TraceSpans)
	}
	if cfg.CheckpointPath != "" {
		// A statement no checkpoint can capture (a library-only baseline's)
		// would fail every periodic capture, so a checkpointing server
		// refuses it up front, naming the statement.
		for i, st := range s.stmts {
			if st.EstimatorKind() == "" {
				return nil, fmt.Errorf("server: checkpointing is on, but statement %d (%s) serves an estimator with no checkpoint form", i, st.Query())
			}
		}
		s.periodic = checkpoint.Periodic{Path: cfg.CheckpointPath, Every: cfg.CheckpointEvery}
		s.periodic.SkipTo(cfg.Engine.Tuples())
	}
	s.pool, err = pipeline.New(cfg.Engine, pipeline.Config{
		Workers:     cfg.Workers,
		OnApplied:   func(n int) { s.tel.AddTuples(int64(n)) },
		OnTask:      s.tel.AddWorkerTask,
		OnSaturated: s.tel.AddPoolSaturation,
		Tracer:      s.tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.queue = pipeline.NewQueue(s.pool, cfg.QueueDepth, s.afterDispatch(), cfg.gate)
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		s.teardownPools()
		return nil, fmt.Errorf("server: %w", err)
	}
	s.ln = ln
	go s.acceptLoop()
	return s, nil
}

// afterDispatch builds the post-dispatch hook: the dispatch span and the
// periodic-checkpoint cadence, both running in the dispatcher goroutine
// (the only legal place to fence the pool). Nil when neither applies, so
// the plain fast path takes no per-batch clock reads. The hook receives the
// batch's tuple count rather than the batch: the pool may have recycled the
// batch by the time the hook runs.
func (s *Server) afterDispatch() func(link obs.Link, tuples int, start time.Time) {
	every := s.periodic.Every // zero when checkpointing is off
	if s.tracer == nil && every <= 0 {
		return nil
	}
	var sinceCkpt int64
	return func(link obs.Link, tuples int, start time.Time) {
		n := int64(tuples)
		if s.tracer != nil {
			s.tracer.SpanLinked(link, obs.SpanDispatch, -1, n, start)
		}
		if every <= 0 {
			return
		}
		sinceCkpt += n
		if sinceCkpt < every {
			return
		}
		// Capture point: fence the pool so every dispatched tuple is
		// applied, then capture under the exclusive lock so no merge
		// mutates an estimator while it marshals.
		ckptStart := time.Now()
		s.pool.Fence()
		eng := s.cfg.Engine
		s.mu.Lock()
		wrote, err := s.periodic.Maybe(eng, eng.Tuples())
		s.mu.Unlock()
		if err != nil {
			s.cfg.Logf("server: periodic checkpoint: %v", err)
		}
		if wrote {
			s.tracer.Span(obs.SpanCheckpoint, len(s.stmts), eng.Tuples(), ckptStart)
		}
		if wrote || err != nil {
			sinceCkpt = 0
		}
	}
}

// teardownPools stops the dispatcher and closes the pool — the shared tail
// of shutdown and Kill. Queue.Close dispatches what was admitted and
// Pool.Close drains the worker queues, so every admitted batch is applied
// when it returns.
func (s *Server) teardownPools() {
	s.queue.Close()
	s.pool.Close()
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Telemetry exposes the live counter set.
func (s *Server) Telemetry() *telemetry.Set { return s.tel }

// Engine returns the server's engine. It must only be used after
// Close or Kill has returned — while the server runs, the engine is its
// alone.
func (s *Server) Engine() *query.Engine { return s.cfg.Engine }

// Tracer exposes the span ring (nil when Config.TraceSpans was zero) for
// out-of-band dumps — impserved's SIGQUIT handler reads it.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// StatsSnapshot implements obs.AdminState: the live telemetry snapshot the
// admin endpoint's /metrics renders.
func (s *Server) StatsSnapshot() telemetry.Snapshot {
	return s.tel.Snapshot()
}

// HealthReports implements obs.AdminState: the engine's per-statement
// estimator health, read under the shared lock so merges and checkpoint
// captures never race the walk.
func (s *Server) HealthReports() []imps.HealthReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cfg.Engine.HealthReports()
}

// TraceSpans implements obs.AdminState: the current span ring contents
// (nil when tracing is disabled).
func (s *Server) TraceSpans() []obs.Span { return s.tracer.Snapshot() }

func (s *Server) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.connMu.Lock()
		if s.draining.Load() {
			s.connMu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.connMu.Unlock()
		go s.serveConn(c)
	}
}

func (s *Server) dropConn(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	c.Close()
}

// handle dispatches one control-plane request frame and builds the
// response frame. Ingest frames
// never reach it — the connection reader short-circuits them through
// handleIngestFast (conn.go).
func (s *Server) handle(f proto.Frame) proto.Frame {
	start := time.Now()
	var resp proto.Frame
	switch f.Type {
	case proto.TQuery:
		resp = s.handleQuery(f)
	case proto.TMerge:
		resp = s.handleMerge(f)
	case proto.TStats:
		resp = proto.Frame{Type: proto.TResult, ID: f.ID, Payload: s.tel.Snapshot().Encode()}
	case proto.THealth:
		resp = s.handleHealth(f)
	case proto.TTrace:
		// No lock: the tracer is its own synchronization, and a disabled
		// tracer encodes as an empty dump rather than an error so pollers
		// need not know the server's configuration. The dump is the fleet
		// trace's layout with empty node labels.
		spans := s.tracer.Snapshot()
		dump := make([]obs.FleetSpan, len(spans))
		for i := range spans {
			dump[i].Span = spans[i]
		}
		resp = proto.Frame{Type: proto.TResult, ID: f.ID, Payload: obs.EncodeFleetTrace(dump)}
	case proto.TSnapshot:
		resp = s.handleSnapshot(f)
	case proto.TReadout:
		resp = s.handleReadout(f)
	case proto.TBoot:
		resp = proto.Frame{Type: proto.TResult, ID: f.ID, Payload: proto.Boot{Nonce: s.boot}.Encode()}
	default:
		return proto.ErrorFrame(f.ID, fmt.Sprintf("unsupported request type %s", f.Type))
	}
	// One clock read serves both the latency histogram and the RPC span —
	// parented under the inbound trace context when the frame carried one.
	if rpc, ok := f.Type.RPC(); ok {
		dur := time.Since(start)
		s.tel.Observe(rpc, dur)
		s.tracer.RecordLinked(obs.Link{Trace: f.TC.Trace, Parent: f.TC.Parent}, obs.SpanRPC, int(rpc), 0, start, dur)
	}
	return resp
}

// statement is the step the Query, Snapshot and Readout handlers start
// with: decode the frame's StmtReq and look its index up.
func (s *Server) statement(f proto.Frame, op string) (uint32, *query.Statement, error) {
	req, err := proto.DecodeStmtReq(f.Payload)
	if err != nil {
		return 0, nil, err
	}
	st, err := s.lookup(op, req.Stmt)
	return req.Stmt, st, err
}

// lookup bounds-checks a request's statement index against the engine's
// statements; op names the handler in the error.
func (s *Server) lookup(op string, idx uint32) (*query.Statement, error) {
	if int(idx) >= len(s.stmts) {
		return nil, fmt.Errorf("%s: no statement %d (server has %d)", op, idx, len(s.stmts))
	}
	return s.stmts[idx], nil
}

func (s *Server) handleQuery(f proto.Frame) proto.Frame {
	_, st, err := s.statement(f, "query")
	if err != nil {
		return proto.ErrorFrame(f.ID, err.Error())
	}
	// Shared lock: reads proceed against a live pool. Count takes the
	// statement's own read lock, so a serialized-class statement is read
	// between its batches; partition-safe estimators snapshot internally.
	s.mu.RLock()
	res := proto.QueryResult{Count: st.Count(), Tuples: s.cfg.Engine.Tuples()}
	s.mu.RUnlock()
	return proto.Frame{Type: proto.TResult, ID: f.ID, Payload: res.Encode()}
}

func (s *Server) handleMerge(f proto.Frame) proto.Frame {
	req, err := proto.DecodeMergeReq(f.Payload)
	if err != nil {
		return proto.ErrorFrame(f.ID, err.Error())
	}
	st, err := s.lookup("merge", req.Stmt)
	if err != nil {
		return proto.ErrorFrame(f.ID, err.Error())
	}
	if st.Shared() {
		return proto.ErrorFrame(f.ID, fmt.Sprintf("merge: statement %d reads a shared estimator; merge into its owner", req.Stmt))
	}
	dst, ok := st.Estimator().(*core.Sketch)
	if !ok {
		return proto.ErrorFrame(f.ID, fmt.Sprintf("merge: statement %d estimator (%s) does not support merging", req.Stmt, kindOf(st)))
	}
	src, err := core.UnmarshalSketch(req.Sketch)
	if err != nil {
		return proto.ErrorFrame(f.ID, fmt.Sprintf("merge: %v", err))
	}
	// The server lock keeps checkpoint captures and readers out; the
	// sketch's own stripe locks keep the workers applying ingest to it out.
	mergeStart := time.Now()
	s.mu.Lock()
	err = dst.Merge(src)
	s.mu.Unlock()
	if err != nil {
		return proto.ErrorFrame(f.ID, fmt.Sprintf("merge: %v", err))
	}
	s.tracer.Span(obs.SpanMerge, int(req.Stmt), int64(len(req.Sketch)), mergeStart)
	s.tel.AddMerge()
	return proto.Frame{Type: proto.TOK, ID: f.ID}
}

// handleSnapshot answers a state pull: the statement's estimator marshalled
// for a downstream SnapshotMerge, plus the engine's applied-tuple count at
// the capture — the offset a coordinator compares against its journal. The
// same restrictions as the merge path apply (no shared estimators, NIPS
// sketches only), because the reply is meant to round-trip through Merge.
func (s *Server) handleSnapshot(f proto.Frame) proto.Frame {
	idx, st, err := s.statement(f, "snapshot")
	if err != nil {
		return proto.ErrorFrame(f.ID, err.Error())
	}
	if st.Shared() {
		return proto.ErrorFrame(f.ID, fmt.Sprintf("snapshot: statement %d reads a shared estimator; snapshot its owner", idx))
	}
	src, ok := st.Estimator().(*core.Sketch)
	if !ok {
		return proto.ErrorFrame(f.ID, fmt.Sprintf("snapshot: statement %d estimator (%s) does not support state pulls", idx, kindOf(st)))
	}
	// The server lock keeps checkpoint captures and merges out, and the
	// sketch marshals under its own stripe locks, a cut between the
	// workers' buckets. Workers do not take the server lock, so the tuple
	// count is a watermark, not a fence — a caller that needs the snapshot
	// to cover everything it shipped compares Tuples against its own ledger
	// and re-pulls after the engine catches up (the coordinator's Flush
	// waits on a leaf's applied count against its journal the same way).
	s.mu.Lock()
	res := proto.SnapshotResult{Tuples: s.cfg.Engine.Tuples(), Kind: st.EstimatorKind()}
	blob, err := src.MarshalBinary()
	s.mu.Unlock()
	if err != nil {
		return proto.ErrorFrame(f.ID, fmt.Sprintf("snapshot: %v", err))
	}
	res.Sketch = blob
	return proto.Frame{Type: proto.TResult, ID: f.ID, Payload: res.Encode()}
}

// handleReadout answers a readout pull: one record per bitmap the
// statement's sketch has observed, plus the engine's applied-tuple count at
// the capture. It is a read like Query — a shared server lock, and the
// sketch reads under its own stripe locks — and nothing is
// merged back, so it answers for a statement aliasing a shared estimator
// as for the estimator's owner.
func (s *Server) handleReadout(f proto.Frame) proto.Frame {
	idx, st, err := s.statement(f, "readout")
	if err != nil {
		return proto.ErrorFrame(f.ID, err.Error())
	}
	src, ok := st.Estimator().(*core.Sketch)
	if !ok {
		return proto.ErrorFrame(f.ID, fmt.Sprintf("readout: statement %d estimator (%s) has no readout", idx, kindOf(st)))
	}
	m := src.Options().Bitmaps
	recs := make([]byte, 0, m*core.ReadoutRecordLen) // at most one record per bitmap
	s.mu.RLock()
	res := proto.ReadoutResult{Tuples: s.cfg.Engine.Tuples(), Bitmaps: uint32(m)}
	recs = src.AppendReadout(recs)
	s.mu.RUnlock()
	res.Records = recs
	return proto.Frame{Type: proto.TResult, ID: f.ID, Payload: res.Encode()}
}

func kindOf(st *query.Statement) string {
	if k := st.EstimatorKind(); k != "" {
		return k
	}
	return fmt.Sprintf("%T", st.Estimator())
}

// handleHealth answers with the engine's per-statement health reports. The
// shared lock keeps merges and checkpoint captures out; each statement's
// Health takes its own read lock below, the same path Query walks.
func (s *Server) handleHealth(f proto.Frame) proto.Frame {
	payload := obs.EncodeHealth(s.HealthReports())
	return proto.Frame{Type: proto.TResult, ID: f.ID, Payload: payload}
}

// shutdown runs the shared teardown: stop accepting, unblock connection
// readers, drain the queue through the pool, stop the dispatcher and the
// pool.
func (s *Server) shutdown(grace time.Duration) {
	s.draining.Store(true)
	s.ln.Close()
	s.connMu.Lock()
	deadline := time.Now().Add(grace)
	for c := range s.conns {
		c.SetReadDeadline(deadline)
	}
	s.connMu.Unlock()
	s.connWG.Wait()
	s.teardownPools()
}

// Close shuts the server down gracefully: the listener closes, connection
// readers finish their in-flight requests (within a short grace window),
// the queue is drained through the engine, and — when checkpointing is
// configured — a final checkpoint is written. Every batch acknowledged
// before Close is applied before the final checkpoint.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.shutdown(drainGrace)
		if s.periodic.Path == "" {
			return
		}
		ckptStart := time.Now()
		eng := s.cfg.Engine
		s.mu.Lock()
		snap, err := checkpoint.Capture(eng, eng.Tuples())
		if err == nil {
			err = checkpoint.Write(s.periodic.Path, snap)
		}
		s.mu.Unlock()
		if err != nil {
			s.closeErr = err
			return
		}
		s.tracer.Span(obs.SpanCheckpoint, len(s.stmts), eng.Tuples(), ckptStart)
	})
	return s.closeErr
}

// Kill tears the server down abruptly — connections are cut mid-request and
// no final checkpoint is written, simulating a crash. Only previously
// written periodic checkpoints survive; the engine must be considered
// lost.
func (s *Server) Kill() {
	s.closeOnce.Do(func() {
		s.killed.Store(true)
		s.draining.Store(true)
		s.ln.Close()
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		s.connWG.Wait()
		s.teardownPools()
	})
}

var _ imps.Estimator = (*core.Sketch)(nil) // the merge path's contract
var _ obs.AdminState = (*Server)(nil)      // the admin endpoint's contract
