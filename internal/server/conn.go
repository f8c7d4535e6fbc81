// The per-connection fast wire path (DESIGN.md §11). Each TCP connection
// runs a reader that decodes frames with a reusable FrameReader, decodes
// and plans ingest batches in place, enqueues them, and encodes every reply
// straight into the connection's proto.Writer, whose flusher goroutine
// sends all replies that accumulated in one write. Steady-state ingest
// therefore costs zero allocations per frame on both directions of the
// wire, and acknowledgements for pipelined batches share syscalls instead
// of paying one each.
package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"time"

	"implicate/internal/obs"
	"implicate/internal/pipeline"
	"implicate/internal/proto"
	"implicate/internal/stream"
	"implicate/internal/telemetry"
	"implicate/internal/tenant"
)

// connState is the per-connection session: which tenant requests resolve
// against, and whether a TAuth frame has pinned it. Only the reader
// goroutine touches it, so it needs no lock. Every connection starts on
// the implicit default tenant — a client that never authenticates sees
// exactly the single-tenant server.
type connState struct {
	tenant *tenant.Tenant
	authed bool
}

func (s *Server) serveConn(c net.Conn) {
	defer s.connWG.Done()
	defer s.dropConn(c)
	w := proto.NewWriter(c, func(err error) {
		c.Close() // unblocks the reader
		if !s.draining.Load() {
			s.cfg.Logf("server: write to %s: %v", c.RemoteAddr(), err)
		}
	})
	defer w.Close()
	cs := &connState{tenant: s.def}
	fr := proto.NewFrameReader(c)
	for {
		f, err := fr.Next()
		if err != nil {
			if err != io.EOF && !s.draining.Load() {
				s.cfg.Logf("server: dropping %s: %v", c.RemoteAddr(), err)
			}
			return
		}
		// f.Payload aliases the FrameReader's buffer: every handler below
		// finishes with it (or copies out of it) before the next Next call.
		if f.Type == proto.TIngest {
			s.handleIngestFast(f, cs, w)
			continue
		}
		if w.Write(s.handle(f, cs)) != nil {
			// A handler produced a payload no frame can carry (a write
			// error fails this too, and the fail hook has closed c).
			w.Write(proto.ErrorFrame(f.ID, "reply exceeds the frame size limit"))
		}
	}
}

// handleIngestFast is the reader-side ingest path: lease a recycled batch
// from the tenant's pool, decode straight from the frame buffer into its
// arena, plan on this goroutine, enqueue, and queue the reply on the
// connection's writer. In steady state the only per-frame allocation left
// is the batch's record string (which the decoded keys alias); every other
// buffer — tuples, partition buckets, tasks — is the leased batch's warm
// memory, returned to the pool when the batch's last statement applies.
func (s *Server) handleIngestFast(f proto.Frame, cs *connState, w *proto.Writer) {
	start := time.Now()
	// The inbound trace context (zero on untraced frames) parents every
	// span this batch produces — plan, dispatch, apply, and the RPC span —
	// so a coordinator's delivery span adopts the whole leaf-side story.
	link := obs.Link{Trace: f.TC.Trace, Parent: f.TC.Parent}
	b := cs.tenant.Pool.NewBatch()
	tuples, err := s.decodeBatch(b.Arena(), f.Payload)
	switch {
	case err != nil:
		b.Release()
		w.Write(proto.ErrorFrame(f.ID, fmt.Sprintf("ingest: %v", err)))
	case s.draining.Load():
		b.Release()
		w.Write(proto.ErrorFrame(f.ID, "ingest: server is shutting down"))
	default:
		s.admitIngest(w, cs.tenant, f.ID, b, tuples, link, start)
	}
	// One clock read serves both the latency histogram and the RPC span,
	// mirroring the control-plane handler.
	dur := time.Since(start)
	s.tel.Observe(telemetry.RPCIngest, dur)
	s.tracer.RecordLinked(link, obs.SpanRPC, int(telemetry.RPCIngest), 0, start, dur)
}

// admitIngest runs the tenant admission sequence for one decoded batch and
// queues its reply: quota check first (a refusal is a TQuota reply carrying
// the retry hint, charged before planning so no partial state exists
// anywhere), then plan, then the lane offer — blocking or busy-refusing per
// Config.BlockOnFull. Every refusal path releases the leased batch; a
// successful enqueue transfers ownership to the dispatcher, so nothing here
// touches b after the lane accepts it. Acks and busy replies are encoded in
// place into the writer's buffer. Reply errors are not checked here: a
// failed writer has already closed the connection through its fail hook,
// which ends the reader.
func (s *Server) admitIngest(w *proto.Writer, t *tenant.Tenant, id uint64, b *pipeline.Batch, tuples []stream.Tuple, link obs.Link, now time.Time) {
	n := int64(len(tuples))
	if q := t.Admit(len(tuples), now); q != nil {
		b.Release()
		w.Write(proto.Frame{Type: proto.TQuota, ID: id, Payload: proto.Quota{Msg: q.Msg, RetryAfter: q.RetryAfter}.Encode()})
		return
	}
	s.planInto(t, b, tuples, link)
	if !s.enqueue(t, b, s.cfg.BlockOnFull) {
		b.Release()
		if t.Lane.Closed() {
			w.Write(proto.ErrorFrame(id, "ingest: tenant dropped or server shutting down"))
			return
		}
		t.AddRejected()
		s.tel.AddRejectedBatch()
		w.WriteFunc(proto.TBusy, id, proto.Busy{RetryAfter: s.cfg.RetryAfter}.AppendTo)
		return
	}
	w.WriteFunc(proto.TOK, id, proto.IngestAck{Tuples: n}.AppendTo)
}

// decodeBatch parses an ingest payload — a complete binary stream (header
// included) — validating the schema and the batch size. The fast path
// compares the header bytes against the server schema's canonical encoding
// and decodes the records into the leased batch's arena (one allocation
// per batch, the record string); anything else takes the slow path, whose
// job is the precise error message.
func (s *Server) decodeBatch(ar *stream.RecordArena, payload []byte) ([]stream.Tuple, error) {
	if bytes.HasPrefix(payload, s.hdr) {
		return ar.DecodeBinaryRecords(payload[len(s.hdr):], s.arity, s.cfg.MaxBatchTuples)
	}
	return s.decodeBatchSlow(payload)
}

// planInto runs the pure planning stage — filters, projections, partition
// hashing (once, forwarded to the estimators) — on the caller's goroutine
// against the tenant's pool, into the leased batch's recycled buffers.
// Connection readers and the UDP lane both call it; the dispatcher never
// does. The link (zero when the inbound frame carried no trace context)
// parents the plan span here and rides the batch to parent its dispatch
// and apply spans downstream.
func (s *Server) planInto(t *tenant.Tenant, b *pipeline.Batch, tuples []stream.Tuple, link obs.Link) *pipeline.Batch {
	var planStart time.Time
	if s.tracer != nil {
		planStart = time.Now()
		b.SetLink(link)
	}
	t.Pool.PlanInto(b, tuples)
	if s.tracer != nil {
		s.tracer.SpanLinked(link, obs.SpanPlan, -1, int64(len(tuples)), planStart)
	}
	return b
}

// enqueue offers a planned batch to the tenant's lane and records an
// admitted batch in the tenant and server counters. With block set it waits
// for lane room, holding up this tenant's producers only: under
// BlockOnFull pipelined frames are then never refused or reordered by a
// re-send, and the UDP lane's socket buffer absorbs the wait. The wait
// always ends, because the dispatcher keeps draining, shutdown included.
// Without block a full lane refuses at once. False means the batch was not
// admitted and still belongs to the caller.
func (s *Server) enqueue(t *tenant.Tenant, b *pipeline.Batch, block bool) bool {
	var depth int
	var ok bool
	if block {
		depth, ok = t.Lane.Enqueue(b)
	} else {
		depth, ok = t.Lane.TryEnqueue(b)
	}
	if ok {
		t.AddBatch()
		s.tel.AddBatch()
		s.tel.ObserveQueueDepth(depth)
	}
	return ok
}
