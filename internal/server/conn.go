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
)

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
			s.handleIngestFast(f, w)
			continue
		}
		if w.Write(s.handle(f)) != nil {
			// A handler produced a payload no frame can carry (a write
			// error fails this too, and the fail hook has closed c).
			w.Write(proto.ErrorFrame(f.ID, "reply exceeds the frame size limit"))
		}
	}
}

// handleIngestFast is the reader-side ingest path: lease a recycled batch
// from the pool, decode straight from the frame buffer into its
// arena, plan on this goroutine, enqueue, and queue the reply on the
// connection's writer. In steady state the only per-frame allocation left
// is the batch's record string (which the decoded keys alias); every other
// buffer — tuples, partition buckets, tasks — is the leased batch's warm
// memory, returned to the pool when the batch's last statement applies.
func (s *Server) handleIngestFast(f proto.Frame, w *proto.Writer) {
	start := time.Now()
	// The inbound trace context (zero on untraced frames) parents every
	// span this batch produces — plan, dispatch, apply, and the RPC span —
	// so a coordinator's delivery span adopts the whole leaf-side story.
	link := obs.Link{Trace: f.TC.Trace, Parent: f.TC.Parent}
	b := s.pool.NewBatch()
	tuples, err := s.decodeBatch(b.Arena(), f.Payload)
	switch {
	case err != nil:
		b.Release()
		w.Write(proto.ErrorFrame(f.ID, fmt.Sprintf("ingest: %v", err)))
	case s.draining.Load():
		b.Release()
		w.Write(proto.ErrorFrame(f.ID, "ingest: server is shutting down"))
	default:
		s.admitIngest(w, f.ID, b, tuples, link)
	}
	// One clock read serves both the latency histogram and the RPC span,
	// mirroring the control-plane handler.
	dur := time.Since(start)
	s.tel.Observe(telemetry.RPCIngest, dur)
	s.tracer.RecordLinked(link, obs.SpanRPC, int(telemetry.RPCIngest), 0, start, dur)
}

// admitIngest plans one decoded batch and offers it to the queue —
// blocking or busy-refusing per Config.BlockOnFull — then queues its reply.
// Every refusal path releases the leased batch; a successful enqueue
// transfers ownership to the dispatcher, so nothing here touches b after
// the queue accepts it. Acks and busy replies are encoded in place into the
// writer's buffer. Reply errors are not checked here: a failed writer has
// already closed the connection through its fail hook, which ends the
// reader.
func (s *Server) admitIngest(w *proto.Writer, id uint64, b *pipeline.Batch, tuples []stream.Tuple, link obs.Link) {
	n := int64(len(tuples))
	// Plan on this goroutine — filters, projections, partition hashing
	// (once, forwarded to the estimators) — into the leased batch's
	// recycled buffers. The link (zero when the frame carried no trace
	// context) parents the plan span and rides the batch to parent its
	// dispatch and apply spans downstream.
	var planStart time.Time
	if s.tracer != nil {
		planStart = time.Now()
		b.SetLink(link)
	}
	s.pool.PlanInto(b, tuples)
	if s.tracer != nil {
		s.tracer.SpanLinked(link, obs.SpanPlan, -1, n, planStart)
	}
	if !s.enqueue(b) {
		b.Release()
		if s.queue.Closed() {
			w.Write(proto.ErrorFrame(id, "ingest: server is shutting down"))
			return
		}
		s.tel.AddRejectedBatch()
		w.WriteFunc(proto.TBusy, id, proto.Busy{RetryAfter: s.cfg.RetryAfter}.AppendTo)
		return
	}
	w.WriteFunc(proto.TOK, id, proto.IngestAck{Tuples: n}.AppendTo)
}

// decodeBatch parses an ingest payload — a complete binary stream (header
// included) — validating the schema and the batch size, and decodes the
// records into the leased batch's arena (one allocation per batch, the
// record string). A header that is not byte-for-byte the server schema's
// canonical encoding is parsed, so a mismatch gets a precise error and a
// non-canonical spelling of the same schema is still served.
func (s *Server) decodeBatch(ar *stream.RecordArena, payload []byte) ([]stream.Tuple, error) {
	n := len(s.hdr)
	if !bytes.HasPrefix(payload, s.hdr) {
		schema, m, err := stream.ParseBinaryHeader(payload)
		if err != nil {
			return nil, err
		}
		got, want := schema.Names(), s.cfg.Schema.Names()
		if len(got) != len(want) {
			return nil, fmt.Errorf("batch schema has %d attributes, server schema has %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return nil, fmt.Errorf("batch schema attribute %d is %q, server schema has %q", i, got[i], want[i])
			}
		}
		n = m
	}
	return ar.DecodeBinaryRecords(payload[n:], s.arity, s.cfg.MaxBatchTuples)
}

// enqueue offers a planned batch to the queue and records an admitted
// batch in the server counters. Under Config.BlockOnFull it waits for
// queue room, so pipelined frames are never refused or reordered by a
// re-send; the wait always ends, because the dispatcher keeps draining,
// shutdown included. Otherwise a full queue refuses at once. False means
// the batch was not admitted and still belongs to the caller.
func (s *Server) enqueue(b *pipeline.Batch) bool {
	var depth int
	var ok bool
	if s.cfg.BlockOnFull {
		depth, ok = s.queue.Enqueue(b)
	} else {
		depth, ok = s.queue.TryEnqueue(b)
	}
	if ok {
		s.tel.AddBatch()
		s.tel.ObserveQueueDepth(depth)
	}
	return ok
}
