// The per-connection fast wire path (DESIGN.md §11). Each TCP connection
// runs two goroutines: a reader that decodes frames with a reusable
// FrameReader, decodes and plans ingest batches in place, and enqueues
// them; and a writer that drains a bounded reply channel, coalesces
// pending replies into one scratch buffer, and flushes them with a single
// vectored write. Steady-state ingest therefore costs zero allocations
// per frame on both directions of the wire, and acknowledgements for
// pipelined batches share syscalls instead of paying one each.
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

const (
	// replyQueueDepth bounds the per-connection reply channel. A full
	// channel blocks the reader — backpressure, not loss; the writer is
	// strictly faster than the reader in steady state so depth beyond the
	// pipelining window is never used.
	replyQueueDepth = 256
	// maxFlushReplies caps how many replies one vectored write coalesces,
	// bounding scratch growth and per-flush latency.
	maxFlushReplies = 64
	// inlineReplyLimit is the payload size above which a reply is vectored
	// (header in scratch, payload as its own iovec) instead of copied into
	// scratch. Acks and busy replies are far below it; stats, health and
	// trace dumps are above.
	inlineReplyLimit = 4096
)

// replyKind selects the writer-side encoding of one reply.
type replyKind uint8

const (
	// replyAck is an ingest acknowledgement: TOK carrying IngestAck{n},
	// encoded allocation-free into the connection scratch.
	replyAck replyKind = iota
	// replyBusy is a backpressure reply: TBusy carrying the server's
	// RetryAfter hint, also encoded allocation-free.
	replyBusy
	// replyGeneric carries a pre-encoded payload from a control-plane
	// handler (query results, stats, errors, merge acks).
	replyGeneric
)

// reply is one queued response. Ack and busy replies carry scalars, not
// payload bytes — the writer encodes them into its scratch, which is the
// bugfix for the fresh-frame-per-ack allocation the old path made.
type reply struct {
	kind    replyKind
	id      uint64
	n       int64 // replyAck: acknowledged tuple count
	t       proto.Type
	payload []byte // replyGeneric only; owned by the writer once enqueued
}

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
	replies := make(chan reply, replyQueueDepth)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.connWriter(c, replies)
	}()
	cs := &connState{tenant: s.def}
	fr := proto.NewFrameReader(c)
	for {
		f, err := fr.Next()
		if err != nil {
			if err != io.EOF && !s.draining.Load() {
				s.cfg.Logf("server: dropping %s: %v", c.RemoteAddr(), err)
			}
			break
		}
		// f.Payload aliases the FrameReader's buffer: every handler below
		// finishes with it (or copies out of it) before the next Next call.
		if f.Type == proto.TIngest {
			s.handleIngestFast(f, cs, replies)
			continue
		}
		resp := s.handle(f, cs)
		replies <- reply{kind: replyGeneric, id: resp.ID, t: resp.Type, payload: resp.Payload}
	}
	close(replies)
	<-writerDone
}

// handleIngestFast is the reader-side ingest path: lease a recycled batch
// from the tenant's pool, decode straight from the frame buffer into its
// arena, plan on this goroutine, enqueue, and hand the reply to the
// writer. In steady state the only per-frame allocation left is the
// batch's record string (which the decoded keys alias); every other buffer
// — tuples, partition buckets, tasks — is the leased batch's warm memory,
// returned to the pool when the batch's last statement applies.
func (s *Server) handleIngestFast(f proto.Frame, cs *connState, out chan<- reply) {
	start := time.Now()
	// The inbound trace context (zero on untraced frames) parents every
	// span this batch produces — plan, dispatch, apply, and the RPC span —
	// so a coordinator's delivery span adopts the whole leaf-side story.
	link := obs.Link{Trace: f.TC.Trace, Parent: f.TC.Parent}
	var r reply
	b := cs.tenant.Pool.NewBatch()
	tuples, err := s.decodeBatch(b.Arena(), f.Payload)
	switch {
	case err != nil:
		b.Release()
		r = reply{kind: replyGeneric, id: f.ID, t: proto.TError, payload: proto.EncodeError(fmt.Sprintf("ingest: %v", err))}
	case s.draining.Load():
		b.Release()
		r = reply{kind: replyGeneric, id: f.ID, t: proto.TError, payload: proto.EncodeError("ingest: server is shutting down")}
	default:
		r = s.admitIngest(cs.tenant, f.ID, b, tuples, link, start)
	}
	// One clock read serves both the latency histogram and the RPC span,
	// mirroring the control-plane handler.
	dur := time.Since(start)
	s.tel.Observe(telemetry.RPCIngest, dur)
	s.tracer.RecordLinked(link, obs.SpanRPC, int(telemetry.RPCIngest), 0, start, dur)
	out <- r
}

// admitIngest runs the tenant admission sequence for one decoded batch:
// quota check first (a refusal is a TQuota reply carrying the retry hint,
// charged before planning so no partial state exists anywhere), then plan,
// then the lane offer — blocking or busy-refusing per Config.BlockOnFull.
// Every refusal path releases the leased batch; a successful enqueue
// transfers ownership to the dispatcher, so nothing here touches b after
// the lane accepts it.
func (s *Server) admitIngest(t *tenant.Tenant, id uint64, b *pipeline.Batch, tuples []stream.Tuple, link obs.Link, now time.Time) reply {
	n := int64(len(tuples))
	if q := t.Admit(len(tuples), now); q != nil {
		b.Release()
		payload := proto.Quota{Msg: q.Msg, RetryAfter: q.RetryAfter}.Encode()
		return reply{kind: replyGeneric, id: id, t: proto.TQuota, payload: payload}
	}
	s.planInto(t, b, tuples, link)
	var depth int
	var ok bool
	if s.cfg.BlockOnFull {
		// Blocking backpressure: the reader waits for lane room, so
		// pipelined frames on this connection are never refused and never
		// reordered by a re-send (the dispatcher keeps draining, so the
		// wait always ends, including during shutdown). The wait holds up
		// this tenant's producers only.
		depth, ok = t.Lane.Enqueue(b)
		if !ok {
			b.Release()
			return reply{kind: replyGeneric, id: id, t: proto.TError, payload: proto.EncodeError("ingest: tenant dropped or server shutting down")}
		}
	} else if depth, ok = t.Lane.TryEnqueue(b); !ok {
		b.Release()
		if t.Lane.Closed() {
			return reply{kind: replyGeneric, id: id, t: proto.TError, payload: proto.EncodeError("ingest: tenant dropped or server shutting down")}
		}
		t.AddRejected()
		s.tel.AddRejectedBatch()
		return reply{kind: replyBusy, id: id}
	}
	t.AddBatch()
	s.tel.AddBatch()
	s.tel.ObserveQueueDepth(depth)
	return reply{kind: replyAck, id: id, n: n}
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

// enqueueWait enqueues a planned batch on the tenant's lane, blocking
// until it has room — the UDP lane's flow control (its socket buffer
// absorbs the wait). False means the lane closed before the batch was
// admitted; the batch was not applied.
func (s *Server) enqueueWait(t *tenant.Tenant, b *pipeline.Batch) bool {
	depth, ok := t.Lane.Enqueue(b)
	if !ok {
		return false
	}
	t.AddBatch()
	s.tel.AddBatch()
	s.tel.ObserveQueueDepth(depth)
	return true
}

// connWriter drains the reply channel, coalescing every reply available
// (up to maxFlushReplies) into one vectored write. Small replies are
// encoded back to back in a reusable scratch buffer; large payloads join
// the iovec uncopied. It exits when the channel closes; on a write error
// it closes the connection to unblock the reader and keeps draining so the
// reader never wedges on a full channel.
func (s *Server) connWriter(nc net.Conn, replies <-chan reply) {
	var (
		scratch []byte
		bufs    net.Buffers
		dead    bool
	)
	flush := func(seg int) {
		if len(scratch) > seg {
			bufs = append(bufs, scratch[seg:])
		}
		if len(bufs) == 0 {
			return
		}
		// WriteTo consumes its receiver, so hand it a copy of the slice
		// header; bufs keeps its backing array for the next round.
		v := bufs
		if _, err := v.WriteTo(nc); err != nil {
			dead = true
			nc.Close()
			if !s.draining.Load() {
				s.cfg.Logf("server: write to %s: %v", nc.RemoteAddr(), err)
			}
		}
	}
	for {
		r, ok := <-replies
		if !ok {
			return
		}
		if dead {
			continue
		}
		scratch, bufs = scratch[:0], bufs[:0]
		seg := 0 // start of the scratch segment not yet pushed to bufs
		scratch, seg = s.appendReply(scratch, &bufs, seg, r)
		for n := 1; n < maxFlushReplies; n++ {
			select {
			case r, ok = <-replies:
				if !ok {
					flush(seg)
					return
				}
				scratch, seg = s.appendReply(scratch, &bufs, seg, r)
			default:
				n = maxFlushReplies
			}
		}
		flush(seg)
	}
}

// appendReply encodes one reply: small ones into scratch, large payloads
// as their own iovec behind their header. Appending to scratch may move
// its backing array; segments already pushed to bufs stay valid — they
// reference the abandoned array, whose bytes are never modified again.
func (s *Server) appendReply(scratch []byte, bufs *net.Buffers, seg int, r reply) ([]byte, int) {
	switch r.kind {
	case replyAck:
		scratch, _ = proto.AppendFrameFunc(scratch, proto.TOK, r.id, func(d []byte) []byte {
			return proto.IngestAck{Tuples: r.n}.AppendTo(d)
		})
	case replyBusy:
		scratch, _ = proto.AppendFrameFunc(scratch, proto.TBusy, r.id, func(d []byte) []byte {
			return proto.Busy{RetryAfter: s.cfg.RetryAfter}.AppendTo(d)
		})
	default:
		if len(r.payload) >= inlineReplyLimit {
			ext, err := proto.AppendFrameHeader(scratch, r.t, r.id, r.payload)
			if err != nil {
				// A handler produced a payload no frame can carry; tell the
				// client that much instead of wedging the connection.
				ext, _ = proto.AppendFrame(scratch, errorFrame(r.id, "reply exceeds the frame size limit"))
				return ext, seg
			}
			scratch = ext
			*bufs = append(*bufs, scratch[seg:], r.payload)
			return scratch, len(scratch)
		}
		// Payloads under inlineReplyLimit are far below MaxFrame; the
		// error path is unreachable.
		scratch, _ = proto.AppendFrame(scratch, proto.Frame{Type: r.t, ID: r.id, Payload: r.payload})
	}
	return scratch, seg
}
