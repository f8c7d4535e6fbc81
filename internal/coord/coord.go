// Package coord is the fleet coordinator: the managed form of the paper's
// §2 two-level aggregation tree (DESIGN.md §12). A Coordinator fronts N
// impserved leaves, routes every ingested tuple to the leaf owning its
// sketch bitmap (route.go), journals and delivers batches in order per leaf
// (leaf.go), tracks liveness with health probes, recovers a crashed leaf
// from its checkpoint before re-admitting it, and answers queries by
// pulling and merging leaf state — one sketch's state — through the
// Snapshot RPC.
//
// Determinism contract: with a fixed configuration (leaf names, leaf sketch
// parameters, route statement) and a fixed tuple sequence, every leaf
// receives the same tuples in the same order on every run — crashes
// included, because routing ignores liveness and recovery replays the
// journal from the leaf's restored checkpoint boundary. A fleet that lost
// and recovered a leaf is therefore bit-identical to an uncrashed shadow
// fleet fed the same stream, which is the property the cluster smoke test
// enforces.
//
// Restrictions: every leaf must run the plain "nips" sketch with identical
// seeds and parameters for every statement — routing hashes with statement
// 0's and the merge fan-in is core.Sketch.Merge — and there may be at most
// as many leaves as bitmaps; New refuses a fleet that breaks either, as it
// does windowed statements.
package coord

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"implicate/internal/client"
	"implicate/internal/core"
	"implicate/internal/imps"
	"implicate/internal/obs"
	"implicate/internal/proto"
	"implicate/internal/query"
	"implicate/internal/stream"
	"implicate/internal/telemetry"
)

// LeafSpec names one fleet member. Name is the stable identity the route
// table hashes — it must survive restarts and address changes; Addr is
// where the leaf listens now.
type LeafSpec struct {
	Name string
	Addr string
}

// Config configures a Coordinator.
type Config struct {
	// Schema is the stream schema, shared with every leaf.
	Schema *stream.Schema
	// Statements are the SQL statements the fleet serves, in the leaves'
	// registration order. Statement 0's A-projection (plus GROUP BY) is the
	// route key.
	Statements []string
	// Leaves is the fleet, in route-table order. Names must be unique.
	Leaves []LeafSpec
	// FlushTuples is the per-leaf batch size: routed tuples are staged
	// until a leaf's buffer holds this many, then journaled and delivered
	// as one batch. Default 512.
	FlushTuples int
	// ProbeEvery is the health-probe period per leaf. Default 50ms.
	ProbeEvery time.Duration
	// ProbeTimeout bounds one probe round trip. Default 1s.
	ProbeTimeout time.Duration
	// ProbeFails is how many consecutive probe failures mark a leaf down.
	// Default 3.
	ProbeFails int
	// DrainTimeout bounds Flush and the merge fan-in's per-leaf quiesce.
	// Default 30s.
	DrainTimeout time.Duration
	// Restart, when non-nil, is the recovery hook: called with a down
	// leaf's name, it restarts that leaf from its latest checkpoint and
	// returns the address it listens on now ("" keeps the old address).
	// When nil, recovery waits for the leaf to come back on its own at the
	// same address.
	Restart func(name string) (addr string, err error)
	// ClientOptions tune the per-leaf clients.
	ClientOptions client.Options
	// TraceSpans, when positive, arms the coordinator's span ring with that
	// capacity: every delivery to a leaf is recorded as the root span of a
	// cross-node trace whose context is stamped on the leaf-bound frame, and
	// the Trace RPC answers with the assembled fleet trace instead of an
	// empty dump. Leaves must be trace-aware builds — a pre-trace peer
	// rejects flagged frames — so arm this only on a fleet upgraded
	// together. 0 disables tracing (the frames stay byte-identical to the
	// untraced wire format).
	TraceSpans int
	// Logf, when non-nil, receives diagnostic messages (probe failures,
	// recovery progress).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.FlushTuples == 0 {
		c.FlushTuples = 512
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = 50 * time.Millisecond
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = time.Second
	}
	if c.ProbeFails == 0 {
		c.ProbeFails = 3
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	// The recovery backoff schedule reuses the client's retry tuning; give
	// it the client package's defaults when unset so it never hot-loops.
	if c.ClientOptions.RetryBase == 0 {
		c.ClientOptions.RetryBase = 2 * time.Millisecond
	}
	if c.ClientOptions.RetryCap == 0 {
		c.ClientOptions.RetryCap = 500 * time.Millisecond
	}
	return c
}

// maxPendingBatches bounds each leaf's pending journal — batches journaled
// but not yet delivered. Ingest blocks on it, so a front-end that outruns a
// leaf waits for the leaf instead of moving the leaf's queue into
// coordinator memory.
const maxPendingBatches = 64

// staged is one leaf's batch in the making: a complete wire-format stream
// (header, then the records routed here so far) that is journaled as-is
// once it holds FlushTuples tuples.
type staged struct {
	buf []byte // reused across batches; the journal keeps an exact-size copy
	n   int64  // tuples in buf
}

// Coordinator fronts a leaf fleet. Create with New. Ingest and Flush
// serialize on one lock; Query, Snapshot and Status are safe concurrently
// with ingest.
type Coordinator struct {
	cfg     Config
	queries []query.Query // parsed and normalized statement templates
	rt      *routeTable
	leaves  []*leaf
	boot    uint64 // this coordinator's incarnation nonce, served over TBoot
	// tracer is the coordinator's span ring (nil when tracing is off):
	// delivery root spans from the feeders, RPC spans from the front-end.
	tracer *obs.Tracer
	// tel is the coordinator's own counter set: routed tuples and batches,
	// front-end RPC latency. Leaf-side counters live on each leaf.
	tel telemetry.Set

	hdr   []byte // stream.BinaryHeader(cfg.Schema): every ingest payload and journal entry starts with it
	arity int

	// mu guards the staging buffers and the router scratch on the ingest
	// path.
	mu    sync.Mutex
	stage []staged // per-leaf, not yet journaled
	key   []byte
	spans []stream.Span

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New validates the configuration, dials every leaf eagerly, learns the
// route hash from the leaves (configuration errors surface here), and
// starts the feeders and probers.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.Schema == nil {
		return nil, fmt.Errorf("coord: nil schema")
	}
	if len(cfg.Statements) == 0 {
		return nil, fmt.Errorf("coord: at least one statement is required")
	}
	if len(cfg.Leaves) == 0 {
		return nil, fmt.Errorf("coord: at least one leaf is required")
	}
	seen := make(map[string]bool, len(cfg.Leaves))
	for _, l := range cfg.Leaves {
		if l.Name == "" || l.Addr == "" {
			return nil, fmt.Errorf("coord: every leaf needs a name and an address")
		}
		if seen[l.Name] {
			return nil, fmt.Errorf("coord: duplicate leaf name %q", l.Name)
		}
		seen[l.Name] = true
	}
	co := &Coordinator{cfg: cfg, stop: make(chan struct{})}
	if cfg.TraceSpans > 0 {
		co.tracer = obs.NewTracer(cfg.TraceSpans)
	}
	nonce, err := proto.NewBootNonce()
	if err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	co.boot = nonce
	for _, sql := range cfg.Statements {
		q, err := query.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("coord: %w", err)
		}
		if err := q.Normalize(cfg.Schema); err != nil {
			return nil, fmt.Errorf("coord: %w", err)
		}
		if q.Window > 0 {
			return nil, fmt.Errorf("coord: windowed statements cannot be merged across a fleet")
		}
		co.queries = append(co.queries, *q)
	}
	co.initStaging()
	for i, spec := range cfg.Leaves {
		lf, err := newLeaf(co, i, spec)
		if err != nil {
			co.Close()
			return nil, err
		}
		co.leaves = append(co.leaves, lf)
	}
	if co.rt, err = co.route(); err != nil {
		co.Close()
		return nil, err
	}
	for _, lf := range co.leaves {
		co.wg.Add(2)
		go lf.run()
		go lf.probe()
	}
	return co, nil
}

func (co *Coordinator) logf(format string, args ...any) { co.cfg.Logf(format, args...) }

// route builds the route table on the hash family and bitmaps of statement
// 0's sketch, which every leaf must run with the same conditions and
// options.
func (co *Coordinator) route() (*routeTable, error) {
	var sk *core.Sketch
	names := make([]string, len(co.leaves))
	for i, lf := range co.leaves {
		names[i] = lf.name
		res, err := lf.cl.SnapshotFenced(0, lf.boot)
		var got *core.Sketch
		if err == nil {
			got, err = core.UnmarshalSketch(res.Sketch)
		}
		switch {
		case err != nil:
			return nil, fmt.Errorf("coord: leaf %s: statement 0 must run a mergeable nips sketch: %w", lf.name, err)
		case sk == nil:
			sk = got
		case got.Conditions() != sk.Conditions() || got.Options() != sk.Options():
			return nil, fmt.Errorf("coord: leaf %s runs %s seed %d, leaf %s runs %s seed %d: every leaf must share sketch conditions, options and seed",
				lf.name, got.ConfigFingerprint(), got.Options().Seed, names[0], sk.ConfigFingerprint(), sk.Options().Seed)
		}
	}
	sk.Reset()
	attrs := append(append([]string(nil), co.queries[0].A...), co.queries[0].GroupBy...)
	return newRouteTable(co.cfg.Schema, attrs, sk, names)
}

// initStaging sizes the ingest-path state from cfg.Schema and cfg.Leaves.
func (co *Coordinator) initStaging() {
	co.hdr = stream.BinaryHeader(co.cfg.Schema)
	co.arity = co.cfg.Schema.Len()
	co.spans = make([]stream.Span, co.arity)
	co.stage = make([]staged, len(co.cfg.Leaves))
	for i := range co.stage {
		co.stage[i].buf = append([]byte(nil), co.hdr...)
	}
}

// Ingest routes a batch of tuples into the per-leaf staging buffers,
// journaling each buffer as it fills. The whole batch is checked first: one
// tuple of the wrong arity, or with the reserved key separator in a value,
// refuses all of it before anything is routed or counted. Ingest blocks
// while a destination leaf's pending journal is full (maxPendingBatches);
// it returns an error if the coordinator closes or that leaf turns out
// unrecoverable while it waits. The tuples are copied, not retained.
func (co *Coordinator) Ingest(tuples []stream.Tuple) error {
	for i, t := range tuples {
		if err := stream.CheckTuple(t, co.arity); err != nil {
			return fmt.Errorf("coord: tuple %d of %d refused, none routed: %w", i, len(tuples), err)
		}
	}
	co.tel.AddBatch()
	co.tel.AddTuples(int64(len(tuples)))
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, t := range tuples {
		co.key = co.rt.proj.AppendKey(co.key[:0], t)
		idx := co.rt.leafOf(co.key)
		co.stage[idx].buf = stream.AppendBinaryRecord(co.stage[idx].buf, t)
		if err := co.stagedLocked(idx); err != nil {
			return err
		}
	}
	return nil
}

// ingestEncoded is Ingest for a batch still in its wire encoding (the
// front-end's path): the header is compared, the whole record region
// validated, then each record's bytes are routed and copied into its leaf's
// staging buffer without ever becoming a stream.Tuple. It returns the
// number of tuples routed.
func (co *Coordinator) ingestEncoded(payload []byte) (int64, error) {
	if !bytes.HasPrefix(payload, co.hdr) {
		return 0, fmt.Errorf("batch header does not match the coordinator schema %v", co.cfg.Schema.Names())
	}
	recs := payload[len(co.hdr):]
	n, err := stream.ValidateBinaryRecords(recs, co.arity)
	if err != nil {
		return 0, err
	}
	co.tel.AddBatch()
	co.tel.AddTuples(int64(n))
	co.mu.Lock()
	defer co.mu.Unlock()
	for off := 0; off < len(recs); {
		end := stream.RecordSpans(recs, off, co.spans)
		co.key = co.rt.proj.AppendKeySpans(co.key[:0], recs, co.spans)
		idx := co.rt.leafOf(co.key)
		co.stage[idx].buf = append(co.stage[idx].buf, recs[off:end]...)
		if err := co.stagedLocked(idx); err != nil {
			return 0, err
		}
		off = end
	}
	return int64(n), nil
}

// stagedLocked accounts for one record just appended to leaf idx's staging
// buffer, journaling the buffer when it reaches FlushTuples. Must hold
// co.mu.
func (co *Coordinator) stagedLocked(idx int) error {
	st := &co.stage[idx]
	if st.n++; st.n < int64(co.cfg.FlushTuples) {
		return nil
	}
	return co.journalLocked(idx)
}

// journalLocked hands leaf idx's staged batch to the leaf's journal as an
// exact-size copy (journal entries are retained; they carry no slack) and
// resets the staging buffer to the bare header. Must hold co.mu.
func (co *Coordinator) journalLocked(idx int) error {
	st := &co.stage[idx]
	if st.n == 0 {
		return nil
	}
	payload := make([]byte, len(st.buf))
	copy(payload, st.buf)
	if err := co.leaves[idx].append(payload, st.n); err != nil {
		return err
	}
	st.buf, st.n = st.buf[:len(co.hdr)], 0
	return nil
}

// Flush journals every staged tuple and blocks until the whole fleet has
// applied everything routed to it — acknowledgements only confirm
// journaling, so this is the one call after which a merge fan-in reflects
// every ingested tuple. The journaling step waits on the pending bound like
// Ingest does; DrainTimeout bounds the drain after it.
func (co *Coordinator) Flush() error {
	co.mu.Lock()
	for idx := range co.stage {
		if err := co.journalLocked(idx); err != nil {
			co.mu.Unlock()
			return err
		}
	}
	co.mu.Unlock()
	deadline := time.Now().Add(co.cfg.DrainTimeout)
	errs := make([]error, len(co.leaves))
	var wg sync.WaitGroup
	for i, lf := range co.leaves {
		wg.Add(1)
		go func(i int, lf *leaf) {
			defer wg.Done()
			errs[i] = lf.drain(deadline)
		}(i, lf)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// merged pulls statement stmt's state from every leaf and merges it in
// leaf order. The pulls run concurrently; the merge is sequential so the
// result is a pure function of the leaf states.
func (co *Coordinator) merged(stmt int) (*core.Sketch, string, int64, error) {
	if stmt < 0 || stmt >= len(co.queries) {
		return nil, "", 0, fmt.Errorf("coord: no statement %d (coordinator has %d)", stmt, len(co.queries))
	}
	deadline := time.Now().Add(co.cfg.DrainTimeout)
	results := make([]proto.SnapshotResult, len(co.leaves))
	errs := make([]error, len(co.leaves))
	var wg sync.WaitGroup
	for i, lf := range co.leaves {
		wg.Add(1)
		go func(i int, lf *leaf) {
			defer wg.Done()
			results[i], errs[i] = lf.snapshot(stmt, deadline)
		}(i, lf)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, "", 0, err
		}
	}
	var dst *core.Sketch
	var tuples int64
	kind := results[0].Kind
	for i, res := range results {
		tuples += res.Tuples
		s, err := core.UnmarshalSketch(res.Sketch)
		if err != nil {
			return nil, "", 0, fmt.Errorf("coord: leaf %s snapshot: %w", co.leaves[i].name, err)
		}
		if dst == nil {
			dst = s
			continue
		}
		if err := dst.Merge(s); err != nil {
			return nil, "", 0, fmt.Errorf("coord: merging leaf %s: %w (leaves must share sketch parameters and seed)", co.leaves[i].name, err)
		}
	}
	return dst, kind, tuples, nil
}

// Query answers statement stmt from the merged fleet state: the count under
// the statement's own read mode, and the fleet-wide applied-tuple total.
// The answer is a live point-in-time read; call Flush first when it must
// cover everything ingested.
func (co *Coordinator) Query(stmt int) (proto.QueryResult, error) {
	merged, _, tuples, err := co.merged(stmt)
	if err != nil {
		return proto.QueryResult{}, err
	}
	count, err := co.evalCount(stmt, merged)
	if err != nil {
		return proto.QueryResult{}, err
	}
	return proto.QueryResult{Count: count, Tuples: tuples}, nil
}

// evalCount reads the statement's answer off a merged estimator by binding
// it into a throwaway compilation of the statement template — Count then
// applies the statement's read mode (implications, supported, distinct...)
// exactly as a leaf would.
func (co *Coordinator) evalCount(stmt int, est imps.Estimator) (float64, error) {
	st, err := query.Compile(co.queries[stmt], co.cfg.Schema, func(imps.Conditions) (imps.Estimator, error) {
		return est, nil
	})
	if err != nil {
		return 0, fmt.Errorf("coord: evaluating statement %d: %w", stmt, err)
	}
	return st.Count(), nil
}

// Snapshot answers the Snapshot RPC with the merged fleet state — the same
// shape a leaf answers with, which is what lets coordinators stack into
// deeper aggregation trees.
func (co *Coordinator) Snapshot(stmt int) (proto.SnapshotResult, error) {
	merged, kind, tuples, err := co.merged(stmt)
	if err != nil {
		return proto.SnapshotResult{}, err
	}
	blob, err := merged.MarshalBinary()
	if err != nil {
		return proto.SnapshotResult{}, fmt.Errorf("coord: %w", err)
	}
	return proto.SnapshotResult{Tuples: tuples, Kind: kind, Sketch: blob}, nil
}

// Status reports the membership view: route-table size (the leaves'
// bitmap count) and one row per leaf.
func (co *Coordinator) Status() proto.ClusterStatus {
	cs := proto.ClusterStatus{VirtualPartitions: uint32(len(co.rt.owner))}
	for _, lf := range co.leaves {
		cs.Leaves = append(cs.Leaves, lf.status())
	}
	return cs
}

// The coordinator is the state behind the impcoordd admin endpoint.
var _ obs.FleetAdminState = (*Coordinator)(nil)

// Tracer returns the coordinator's span ring, nil when tracing is off —
// the daemon's SIGQUIT dump and the admin endpoint read it directly.
func (co *Coordinator) Tracer() *obs.Tracer { return co.tracer }

// CoordStats snapshots the coordinator's own counter set: routed tuples
// and batches, front-end RPC latency. Stats answers with it, and it is
// half of the obs.FleetAdminState surface the admin endpoint reads.
func (co *Coordinator) CoordStats() telemetry.Snapshot { return co.tel.Snapshot() }

// VirtualPartitions reports the route-table size: the leaves' bitmap count.
func (co *Coordinator) VirtualPartitions() int { return len(co.rt.owner) }

// FleetTelemetry reports every leaf's coordinator-side observability row,
// in leaf order.
func (co *Coordinator) FleetTelemetry() []obs.LeafTelemetry {
	out := make([]obs.LeafTelemetry, 0, len(co.leaves))
	for _, lf := range co.leaves {
		out = append(out, lf.telemetryRow())
	}
	return out
}

// FleetStats pulls every leaf's telemetry snapshot concurrently over the
// Stats RPC, returning rows in leaf order. Down leaves and failed pulls
// are skipped — the roll-up serves what the fleet can answer now rather
// than blocking a scrape on a recovery.
func (co *Coordinator) FleetStats() []obs.LeafStatsRow {
	rows := make([]*obs.LeafStatsRow, len(co.leaves))
	co.eachUpLeaf(func(i int, lf *leaf, cl *client.Client) {
		sn, err := cl.Stats()
		if err != nil {
			return
		}
		rows[i] = &obs.LeafStatsRow{Name: lf.name, Stats: sn}
	})
	out := make([]obs.LeafStatsRow, 0, len(rows))
	for _, r := range rows {
		if r != nil {
			out = append(out, *r)
		}
	}
	return out
}

// FleetHealth pulls every leaf's estimator health reports concurrently
// over the Health RPC, skipping down leaves and failed pulls like
// FleetStats.
func (co *Coordinator) FleetHealth() []obs.LeafHealthRow {
	rows := make([]*obs.LeafHealthRow, len(co.leaves))
	co.eachUpLeaf(func(i int, lf *leaf, cl *client.Client) {
		reports, err := cl.Health()
		if err != nil {
			return
		}
		rows[i] = &obs.LeafHealthRow{Name: lf.name, Reports: reports}
	})
	out := make([]obs.LeafHealthRow, 0, len(rows))
	for _, r := range rows {
		if r != nil {
			out = append(out, *r)
		}
	}
	return out
}

// FleetTrace assembles the cross-node trace: the coordinator's own span
// ring next to every reachable leaf's, each span labeled with the node
// that recorded it, ordered causally (children directly after the parent
// their frames linked them to). Down leaves are skipped — a partial trace
// from a degraded fleet beats no trace, and the orphan rule in
// obs.OrderFleetTrace keeps leaf spans visible even when the coordinator
// ring lapped their delivery span out.
func (co *Coordinator) FleetTrace() []obs.FleetSpan {
	var out []obs.FleetSpan
	for _, sp := range co.tracer.Snapshot() {
		out = append(out, obs.FleetSpan{Node: "coord", Span: sp})
	}
	rows := make([][]obs.FleetSpan, len(co.leaves))
	co.eachUpLeaf(func(i int, lf *leaf, cl *client.Client) {
		spans, err := cl.Trace()
		if err != nil {
			return
		}
		row := make([]obs.FleetSpan, len(spans))
		for j := range spans {
			row[j] = obs.FleetSpan{Node: lf.name, Span: spans[j]}
		}
		rows[i] = row
	})
	for _, row := range rows {
		out = append(out, row...)
	}
	return obs.OrderFleetTrace(out)
}

// eachUpLeaf runs fn concurrently for every leaf that is currently up and
// not sticky-fatal, passing the admitted client. Used by the observability
// fan-outs, which tolerate skipped leaves.
func (co *Coordinator) eachUpLeaf(fn func(i int, lf *leaf, cl *client.Client)) {
	var wg sync.WaitGroup
	for i, lf := range co.leaves {
		lf.mu.Lock()
		cl, up := lf.cl, lf.state == leafUp && lf.fatal == nil && !lf.closed
		lf.mu.Unlock()
		if !up {
			continue
		}
		wg.Add(1)
		go func(i int, lf *leaf, cl *client.Client) {
			defer wg.Done()
			fn(i, lf, cl)
		}(i, lf, cl)
	}
	wg.Wait()
}

// Close stops the probers and feeders and closes every leaf client; an
// Ingest blocked on a full pending journal returns an error. Staged tuples
// not yet journaled and journaled batches not yet delivered are NOT flushed
// — call Flush first for a clean handoff.
func (co *Coordinator) Close() error {
	co.closeOnce.Do(func() {
		close(co.stop)
		for _, lf := range co.leaves {
			lf.shut()
		}
		co.wg.Wait()
	})
	return nil
}
