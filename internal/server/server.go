// Package server is the network face of the query engine: a TCP server
// speaking internal/proto that feeds one or more engines from remote
// producers and answers implication queries, sketch merges and telemetry
// reads.
//
// Architecture: one accept loop, one reader and one writer goroutine per
// connection, one fair-share dispatcher, and a pipeline worker pool per
// tenant (internal/pipeline). Connection readers decode AND plan ingest
// batches — filters, projections and partition hashing run concurrently
// per connection — and hand the planned batches to their tenant's bounded
// lane; the dispatcher drains the lanes deficit-round-robin and feeds each
// tenant's pool in lane-arrival order, which is all the ordering the
// engine's estimators need for bit-identical-to-serial results (DESIGN.md
// §10). Replies flow through the per-connection proto.Writer, which
// coalesces pending acks into single writes (conn.go). When a lane is full
// the batch is refused with an explicit backpressure reply (proto.TBusy)
// and NOT enqueued — the client retries. (Pipelined producers that need
// strict per-connection ordering set Config.BlockOnFull instead: the reader
// then blocks for lane room, so no batch is ever refused and re-sent out of
// order.) An acknowledged batch is never dropped: graceful shutdown drains
// every lane through its pool before the final checkpoints are written.
//
// Multi-tenancy (DESIGN.md §13): every server carries an implicit default
// tenant wrapping Config.Engine — exactly the single-tenant behavior older
// clients see, no TAuth required. Named tenants (Config.Tenants, or the
// admin endpoint's POST /tenants) each own an engine, statement registry,
// checkpoint lineage (<CheckpointDir>/<name>.ckpt) and counters. A
// connection serves the default tenant until a TAuth frame pins it to a
// namespace — HMAC-SHA256 connect tokens, verified against Config.TokenKey
// — and every request after the pin resolves against that tenant alone.
// Per-tenant ingest quotas (token-bucket rate, memory ceiling) refuse at
// admission with proto.TQuota before planning or enqueueing, so a refused
// batch leaves no partial engine state and no neighbor pays for it.
//
// Reads never stall ingestion: Query and Stats answer under the tenant's
// read lock (plus the per-statement read locks of query.Statement.Count),
// while workers keep applying batches; only merges and checkpoint captures
// take a tenant's write lock, and captures first fence that tenant's pool
// so no task is in flight.
//
// Durability composes with the network path exactly as with file streams
// (DESIGN.md §8): each tenant checkpoints its engine every CheckpointEvery
// applied tuples and once more on graceful shutdown. The checkpoint offset
// is the engine's applied-tuple count; a producer recovering a crashed
// server replays its tuple sequence from that offset. Acknowledgements
// confirm enqueueing, not durability — durability is checkpoint + replay.
package server

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"implicate/internal/core"
	"implicate/internal/imps"
	"implicate/internal/obs"
	"implicate/internal/pipeline"
	"implicate/internal/proto"
	"implicate/internal/query"
	"implicate/internal/stream"
	"implicate/internal/telemetry"
	"implicate/internal/tenant"
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
	// Engine answers the default tenant's queries and receives its tuples.
	Engine *query.Engine
	// QueueDepth bounds each tenant's ingest lane in batches (unless the
	// tenant's own QueueLen overrides it); a full lane refuses further
	// batches with backpressure replies. Default 64.
	QueueDepth int
	// Workers is the per-tenant pipeline worker pool size batches are
	// fanned out to. Zero selects GOMAXPROCS. Whatever the pool size,
	// results are bit-identical to a single-worker run.
	Workers int
	// MaxBatchTuples bounds one ingest batch; larger batches are rejected
	// as errors. Default 65536.
	MaxBatchTuples int
	// CheckpointPath, when non-empty, makes the server write the default
	// tenant's checkpoints there — every CheckpointEvery applied tuples and
	// once on graceful Close. Listen then refuses an engine with a statement
	// no checkpoint can capture (a library-only baseline's).
	CheckpointPath string
	// CheckpointEvery is the applied-tuple interval between periodic
	// checkpoints (per tenant); zero checkpoints only on Close.
	CheckpointEvery int64
	// RetryAfter is the delay hint carried in backpressure replies.
	// Default 20ms.
	RetryAfter time.Duration
	// BlockOnFull switches ingest backpressure from busy-refusal to
	// blocking: when the tenant's lane is full the connection reader waits
	// for room instead of replying TBusy, so backpressure propagates
	// through TCP flow control. Pipelined producers that depend on
	// per-connection ordering need this — a busy-refused batch is re-sent
	// behind its already-pipelined successors, which reorders the stream
	// even though acknowledgements confirm enqueueing (the lane can be full
	// of batches that were already acked). The default (false) keeps
	// explicit TBusy replies, which synchronous request/response producers
	// prefer. The wait is per tenant: a blocked lane never stalls another
	// tenant's dispatch.
	BlockOnFull bool
	// Logf, when non-nil, receives diagnostic messages (failed periodic
	// checkpoints, dropped connections, tenant lifecycle).
	Logf func(format string, args ...any)
	// TraceSpans, when positive, enables the event tracer with a ring
	// holding that many spans (obs.DefaultSpans is the conventional size).
	// Zero disables tracing: no ring is allocated and the ingest path takes
	// no per-task clock reads. The Trace RPC then answers with an empty
	// dump.
	TraceSpans int

	// TokenKey is the HMAC-SHA256 key connect tokens are verified against
	// (tenant.Token mints them). Empty disables verification: any token
	// authenticates an existing tenant, for deployments that gate access at
	// the network layer.
	TokenKey []byte
	// Tenants declares named tenants to create (or resume from
	// CheckpointDir) at Listen. Requires Backends.
	Tenants []tenant.Config
	// Backends maps estimator kind names to factories for tenant creation
	// and checkpoint resume. Required when Tenants is non-empty or tenants
	// are created through the admin endpoint.
	Backends tenant.Backends
	// CheckpointDir, when non-empty, holds one checkpoint file per named
	// tenant (<dir>/<name>.ckpt), written on the same cadence as the
	// default tenant's and resumed from at create time. A tenant whose
	// engine no checkpoint can capture is then refused.
	CheckpointDir string

	// gate, when non-nil, is called by the dispatcher before each batch is
	// handed to a pool — a test hook for making queue states deterministic.
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

	// def is the implicit default tenant wrapping Config.Engine — what
	// every connection serves until a TAuth frame pins it elsewhere. It
	// lives outside the registry (its name is reserved) and carries no
	// quotas.
	def *tenant.Tenant
	// reg resolves named tenants and verifies their connect tokens.
	reg *tenant.Registry
	// fair is the deficit-round-robin dispatcher draining every tenant's
	// lane; its goroutine is the sole caller of Dispatch/Fence on live
	// pools, preserving the per-pool ordering contract.
	fair *pipeline.Fair
	// tenMu serializes tenant lifecycle: create, drop, and shutdown's pool
	// teardown. Never held on the request path.
	tenMu sync.Mutex
	// laneSeq numbers named tenants' lanes for dispatch spans; the default
	// tenant keeps the single-tenant span arg (-1).
	laneSeq atomic.Int64

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
	if len(cfg.Tenants) > 0 && len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("server: tenants declared without backends")
	}
	s := &Server{
		cfg:   cfg,
		tel:   &telemetry.Set{},
		reg:   tenant.NewRegistry(cfg.TokenKey),
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
	s.fair = pipeline.NewFair()
	if cfg.gate != nil {
		s.fair.SetGate(cfg.gate)
	}
	s.def = tenant.Wrap(tenant.DefaultName, cfg.Engine, cfg.CheckpointPath, cfg.CheckpointEvery)
	if err := s.attach(s.def); err != nil {
		s.fair.Close()
		return nil, fmt.Errorf("server: %w", err)
	}
	for _, tc := range cfg.Tenants {
		if err := s.addTenant(tc); err != nil {
			s.teardownPools()
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		s.teardownPools()
		return nil, fmt.Errorf("server: %w", err)
	}
	s.ln = ln
	go s.acceptLoop()
	return s, nil
}

// attach builds a tenant's worker pool and fair-share lane. Called from
// Listen and (under tenMu) from addTenant, always before the tenant is
// resolvable by connections. A checkpointing tenant with a statement no
// checkpoint can capture (a library-only baseline's) is refused, naming
// the statement: it would fail every periodic capture.
func (s *Server) attach(t *tenant.Tenant) error {
	for i, st := range t.Engine().Statements() {
		if t.CheckpointPath() != "" && st.EstimatorKind() == "" {
			return fmt.Errorf("tenant %s checkpoints, but statement %d (%s) serves an estimator with no checkpoint form", t.Name(), i, st.Query())
		}
	}
	pool, err := pipeline.New(t.Engine(), pipeline.Config{
		Workers:     s.cfg.Workers,
		OnApplied:   func(n int) { s.tel.AddTuples(int64(n)); t.NoteApplied(n) },
		OnTask:      s.tel.AddWorkerTask,
		OnSaturated: s.tel.AddPoolSaturation,
		Tracer:      s.tracer,
	})
	if err != nil {
		return err
	}
	qlen := t.QueueLen()
	if qlen == 0 {
		qlen = s.cfg.QueueDepth
	}
	t.Pool = pool
	t.Lane = s.fair.AddLane(t.Weight(), qlen, pool, s.afterDispatch(t))
	return nil
}

// afterDispatch builds the tenant's post-dispatch hook: the dispatch span
// and the periodic-checkpoint cadence, both running in the dispatcher
// goroutine (the only legal place to fence the tenant's pool). Nil when
// neither applies, so the plain fast path takes no per-batch clock reads.
// The hook receives the batch's tuple count rather than the batch: the
// pool may have recycled the batch by the time the hook runs.
func (s *Server) afterDispatch(t *tenant.Tenant) func(link obs.Link, tuples int, start time.Time) {
	every := t.CheckpointEvery()
	if s.tracer == nil && every <= 0 {
		return nil
	}
	// The default tenant keeps the single-tenant span args; named tenants
	// are numbered so their dispatch and checkpoint spans are attributable.
	laneID := -1
	ckptID := len(t.Statements())
	if t != s.def {
		laneID = int(s.laneSeq.Add(1))
		ckptID = laneID
	}
	var sinceCkpt int64
	return func(link obs.Link, tuples int, start time.Time) {
		n := int64(tuples)
		if s.tracer != nil {
			s.tracer.SpanLinked(link, obs.SpanDispatch, laneID, n, start)
		}
		if every <= 0 {
			return
		}
		sinceCkpt += n
		if sinceCkpt < every {
			return
		}
		// Capture point: fence the tenant's pool so every dispatched tuple
		// is applied, then capture under its exclusive lock so no merge
		// mutates an estimator while it marshals. Other tenants' lanes keep
		// dispatching only after this returns — the price of a single
		// dispatcher — but the capture is per-tenant state only.
		ckptStart := time.Now()
		t.Pool.Fence()
		wrote, err := t.MaybeCheckpoint()
		if err != nil {
			s.cfg.Logf("server: periodic checkpoint (%s): %v", t.Name(), err)
		}
		if wrote {
			s.tracer.Span(obs.SpanCheckpoint, ckptID, t.Engine().Tuples(), ckptStart)
		}
		if wrote || err != nil {
			sinceCkpt = 0
		}
	}
}

// addTenant builds, attaches and registers one named tenant. Callers hold
// tenMu (or are Listen, before any other goroutine exists).
func (s *Server) addTenant(cfg tenant.Config) error {
	t, resumed, err := tenant.New(cfg, s.cfg.Schema, s.cfg.Backends, s.cfg.CheckpointDir, s.cfg.CheckpointEvery)
	if err != nil {
		return err
	}
	if err := s.attach(t); err != nil {
		return err
	}
	if err := s.reg.Add(t); err != nil {
		s.fair.RemoveLane(t.Lane)
		t.Pool.Close()
		return err
	}
	if resumed {
		s.cfg.Logf("server: tenant %s resumed from %s at offset %d", cfg.Name, t.CheckpointPath(), t.Engine().Tuples())
	}
	return nil
}

// CreateTenant implements obs.TenantAdmin: the admin endpoint's POST
// /tenants. Safe while the server serves — other tenants never pause.
func (s *Server) CreateTenant(spec obs.TenantSpec) error {
	s.tenMu.Lock()
	defer s.tenMu.Unlock()
	if s.draining.Load() {
		return fmt.Errorf("server is shutting down")
	}
	if len(s.cfg.Backends) == 0 {
		return fmt.Errorf("server has no backends configured for tenant creation")
	}
	return s.addTenant(tenant.Config{
		Name:      spec.Name,
		Queries:   spec.Queries,
		Backend:   spec.Backend,
		MemBudget: spec.MemBudget,
		Rate:      spec.Rate,
		Burst:     spec.Burst,
		Weight:    spec.Weight,
		QueueLen:  spec.QueueLen,
	})
}

// DropTenant implements obs.TenantAdmin: unregister the tenant (new
// sessions stop resolving it), drain what its lane already admitted, write
// its final checkpoint, and release its pool. Connections still pinned to
// it get refusals from then on; other tenants never pause.
func (s *Server) DropTenant(name string) error {
	s.tenMu.Lock()
	defer s.tenMu.Unlock()
	if s.draining.Load() {
		return fmt.Errorf("server is shutting down")
	}
	t, ok := s.reg.Remove(name)
	if !ok {
		return fmt.Errorf("tenant %q: not found", name)
	}
	s.fair.RemoveLane(t.Lane)
	// RemoveLane returned: the dispatcher will never touch this pool again,
	// so fencing and closing it from here is the dispatcher role handed
	// over.
	t.Pool.Fence()
	err := t.FinalCheckpoint()
	t.Pool.Close()
	return err
}

// TenantStats implements obs.TenantAdmin: per-tenant counters for the
// admin endpoint, nil on single-tenant servers.
func (s *Server) TenantStats() []telemetry.TenantStats { return s.snapshot().Tenants }

// snapshot freezes the telemetry set, appending per-tenant rows when named
// tenants exist.
func (s *Server) snapshot() telemetry.Snapshot {
	sn := s.tel.Snapshot()
	if s.reg.Len() > 0 {
		ts := []telemetry.TenantStats{s.def.Stats()}
		for _, t := range s.reg.List() {
			ts = append(ts, t.Stats())
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i].Name < ts[j].Name })
		sn.Tenants = ts
	}
	return sn
}

// teardownPools stops the fair dispatcher and closes every tenant pool —
// the shared tail of shutdown, Kill and failed Listen. Pool.Close drains
// the worker queues, so every dispatched batch is applied when it returns.
func (s *Server) teardownPools() {
	s.fair.Close()
	s.tenMu.Lock()
	s.def.Pool.Close()
	for _, t := range s.reg.List() {
		t.Pool.Close()
	}
	s.tenMu.Unlock()
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Telemetry exposes the live counter set.
func (s *Server) Telemetry() *telemetry.Set { return s.tel }

// Engine returns the default tenant's engine. It must only be used after
// Close or Kill has returned — while the server runs, the engine is its
// alone.
func (s *Server) Engine() *query.Engine { return s.cfg.Engine }

// Tracer exposes the span ring (nil when Config.TraceSpans was zero) for
// out-of-band dumps — impserved's SIGQUIT handler reads it.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// StatsSnapshot implements obs.AdminState: the live telemetry snapshot the
// admin endpoint's /metrics renders, tenant rows included.
func (s *Server) StatsSnapshot() telemetry.Snapshot {
	return s.snapshot()
}

// HealthReports implements obs.AdminState: the default engine's
// per-statement estimator health, read under the tenant's shared lock so
// merges and checkpoint captures never race the walk.
func (s *Server) HealthReports() []imps.HealthReport {
	s.def.Mu.RLock()
	defer s.def.Mu.RUnlock()
	return s.def.Engine().HealthReports()
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

// handle dispatches one control-plane request frame against the
// connection's pinned tenant and builds the response frame. Ingest frames
// never reach it — the connection reader short-circuits them through
// handleIngestFast (conn.go).
func (s *Server) handle(f proto.Frame, cs *connState) proto.Frame {
	start := time.Now()
	var resp proto.Frame
	switch f.Type {
	case proto.TQuery:
		resp = s.handleQuery(f, cs.tenant)
	case proto.TMerge:
		resp = s.handleMerge(f, cs.tenant)
	case proto.TStats:
		resp = proto.Frame{Type: proto.TResult, ID: f.ID, Payload: s.snapshot().Encode()}
	case proto.THealth:
		resp = s.handleHealth(f, cs.tenant)
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
		resp = s.handleSnapshot(f, cs.tenant)
	case proto.TReadout:
		resp = s.handleReadout(f, cs.tenant)
	case proto.TBoot:
		resp = proto.Frame{Type: proto.TResult, ID: f.ID, Payload: proto.Boot{Nonce: s.boot}.Encode()}
	case proto.TAuth:
		resp = s.handleAuth(f, cs)
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

// handleAuth pins the connection to a tenant. A session authenticates at
// most once — re-pinning mid-stream would let one connection's pipelined
// batches straddle two engines, so a second TAuth is an error. The default
// tenant may be named explicitly (token still verified when a key is set);
// connections that never send TAuth serve it implicitly, which is the
// whole backward-compatibility story.
func (s *Server) handleAuth(f proto.Frame, cs *connState) proto.Frame {
	req, err := proto.DecodeAuthReq(f.Payload)
	if err != nil {
		return proto.ErrorFrame(f.ID, err.Error())
	}
	if cs.authed {
		return proto.ErrorFrame(f.ID, "auth: session already pinned to a tenant")
	}
	var t *tenant.Tenant
	if req.Tenant == tenant.DefaultName {
		if !tenant.VerifyToken(s.cfg.TokenKey, req.Tenant, req.Token) {
			return proto.ErrorFrame(f.ID, fmt.Sprintf("tenant %q: unknown tenant or bad token", req.Tenant))
		}
		t = s.def
	} else {
		t, err = s.reg.Authenticate(req.Tenant, req.Token)
		if err != nil {
			return proto.ErrorFrame(f.ID, err.Error())
		}
	}
	cs.tenant = t
	cs.authed = true
	return proto.Frame{Type: proto.TOK, ID: f.ID}
}

// statement is the step the Query, Snapshot and Readout handlers start
// with: decode the frame's StmtReq and look its index up in the tenant.
func statement(f proto.Frame, t *tenant.Tenant, op string) (uint32, *query.Statement, error) {
	req, err := proto.DecodeStmtReq(f.Payload)
	if err != nil {
		return 0, nil, err
	}
	st, err := lookup(t, op, req.Stmt)
	return req.Stmt, st, err
}

// lookup bounds-checks a request's statement index against the tenant's
// statements; op names the handler in the error.
func lookup(t *tenant.Tenant, op string, idx uint32) (*query.Statement, error) {
	stmts := t.Statements()
	if int(idx) >= len(stmts) {
		return nil, fmt.Errorf("%s: no statement %d (tenant has %d)", op, idx, len(stmts))
	}
	return stmts[idx], nil
}

func (s *Server) handleQuery(f proto.Frame, t *tenant.Tenant) proto.Frame {
	_, st, err := statement(f, t, "query")
	if err != nil {
		return proto.ErrorFrame(f.ID, err.Error())
	}
	// Shared lock: reads proceed against a live pool. Count takes the
	// statement's own read lock, so a serialized-class statement is read
	// between its batches; partition-safe estimators snapshot internally.
	t.Mu.RLock()
	res := proto.QueryResult{Count: st.Count(), Tuples: t.Engine().Tuples()}
	t.Mu.RUnlock()
	return proto.Frame{Type: proto.TResult, ID: f.ID, Payload: res.Encode()}
}

func (s *Server) handleMerge(f proto.Frame, t *tenant.Tenant) proto.Frame {
	req, err := proto.DecodeMergeReq(f.Payload)
	if err != nil {
		return proto.ErrorFrame(f.ID, err.Error())
	}
	st, err := lookup(t, "merge", req.Stmt)
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
	// The tenant lock keeps checkpoint captures and readers out; the
	// sketch's own stripe locks keep the workers applying ingest to it out.
	mergeStart := time.Now()
	t.Mu.Lock()
	err = dst.Merge(src)
	t.Mu.Unlock()
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
func (s *Server) handleSnapshot(f proto.Frame, t *tenant.Tenant) proto.Frame {
	idx, st, err := statement(f, t, "snapshot")
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
	// The tenant lock keeps checkpoint captures and merges out, and the
	// sketch marshals under its own stripe locks, a cut between the
	// workers' buckets. Workers do not take the tenant lock, so the tuple
	// count is a watermark, not a fence — a caller that needs the snapshot
	// to cover everything it shipped compares Tuples against its own ledger
	// and re-pulls after the engine catches up (the coordinator's Flush
	// waits on a leaf's applied count against its journal the same way).
	t.Mu.Lock()
	res := proto.SnapshotResult{Tuples: t.Engine().Tuples(), Kind: st.EstimatorKind()}
	blob, err := src.MarshalBinary()
	t.Mu.Unlock()
	if err != nil {
		return proto.ErrorFrame(f.ID, fmt.Sprintf("snapshot: %v", err))
	}
	res.Sketch = blob
	return proto.Frame{Type: proto.TResult, ID: f.ID, Payload: res.Encode()}
}

// handleReadout answers a readout pull: one record per bitmap the
// statement's sketch has observed, plus the engine's applied-tuple count at
// the capture. It is a read like Query — a shared tenant lock, and the
// sketch reads under its own stripe locks — and nothing is
// merged back, so it answers for a statement aliasing a shared estimator
// as for the estimator's owner.
func (s *Server) handleReadout(f proto.Frame, t *tenant.Tenant) proto.Frame {
	idx, st, err := statement(f, t, "readout")
	if err != nil {
		return proto.ErrorFrame(f.ID, err.Error())
	}
	src, ok := st.Estimator().(*core.Sketch)
	if !ok {
		return proto.ErrorFrame(f.ID, fmt.Sprintf("readout: statement %d estimator (%s) has no readout", idx, kindOf(st)))
	}
	m := src.Options().Bitmaps
	recs := make([]byte, 0, m*core.ReadoutRecordLen) // at most one record per bitmap
	t.Mu.RLock()
	res := proto.ReadoutResult{Tuples: t.Engine().Tuples(), Bitmaps: uint32(m)}
	recs = src.AppendReadout(recs)
	t.Mu.RUnlock()
	res.Records = recs
	return proto.Frame{Type: proto.TResult, ID: f.ID, Payload: res.Encode()}
}

func kindOf(st *query.Statement) string {
	if k := st.EstimatorKind(); k != "" {
		return k
	}
	return fmt.Sprintf("%T", st.Estimator())
}

// handleHealth answers with the pinned tenant's per-statement health
// reports. The shared lock keeps merges and checkpoint captures out; each
// statement's Health takes its own read lock below, the same path Query
// walks.
func (s *Server) handleHealth(f proto.Frame, t *tenant.Tenant) proto.Frame {
	t.Mu.RLock()
	payload := obs.EncodeHealth(t.Engine().HealthReports())
	t.Mu.RUnlock()
	return proto.Frame{Type: proto.TResult, ID: f.ID, Payload: payload}
}

// shutdown runs the shared teardown: stop accepting, unblock connection
// readers, drain every lane through its pool, stop the dispatcher and the
// pools.
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
	s.teardownPools() // fair.Close drains the lanes; Pool.Close applies the rest
}

// Close shuts the server down gracefully: the listener closes, connection
// readers finish their in-flight requests (within a short grace window),
// every tenant's lane is drained through its engine, and — when
// checkpointing is configured — final checkpoints are written for the
// default tenant and every named tenant. Every batch acknowledged before
// Close is applied before its tenant's final checkpoint.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.shutdown(drainGrace)
		ckptStart := time.Now()
		if err := s.def.FinalCheckpoint(); err != nil {
			s.closeErr = err
		} else if s.cfg.CheckpointPath != "" {
			s.tracer.Span(obs.SpanCheckpoint, len(s.def.Statements()), s.def.Engine().Tuples(), ckptStart)
		}
		for _, t := range s.reg.List() {
			if err := t.FinalCheckpoint(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// Kill tears the server down abruptly — connections are cut mid-request and
// no final checkpoint is written, simulating a crash. Only previously
// written periodic checkpoints survive; the engines must be considered
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
var _ obs.TenantAdmin = (*Server)(nil)     // the admin endpoint's tenant CRUD
