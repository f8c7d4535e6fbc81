// The UDP ingest lane: the server side of internal/proto's datagram path.
// One goroutine owns the socket and applies datagrams; per-source state
// (cumulative watermark, reorder window, drop counters) sits behind a
// mutex only because TUDPAck polls read it from connection readers.
//
// Determinism: the lane applies each source's datagrams strictly in
// sequence order — out-of-order arrivals wait in a bounded window,
// duplicates and too-far-ahead arrivals are dropped — so per-source tuple
// order equals send order, the same contract the TCP lane gets from its
// connection FIFO. Batches from different sources interleave in arrival
// order, exactly as batches from different TCP connections do.
package server

import (
	"fmt"
	"net"
	"sync"

	"implicate/internal/obs"
	"implicate/internal/proto"
)

// udpSource is the per-producer lane state. The accounting invariant is
// applied + decode-failure drops == cum (NOT applied == cum): a CRC-valid
// batch that fails to decode advances cum while counting in drops, since a
// retransmission could not help it. Window-overflow and drain drops do not
// advance cum and are recoverable by retransmission; see
// proto.UDPAck.Applied.
type udpSource struct {
	cum     uint64 // every seq <= cum is consumed (applied or decode-dropped)
	applied uint64 // batches applied to the engine (cum minus decode drops)
	dups    uint64 // duplicates dropped
	drops   uint64 // non-duplicate drops (window overflow, drain, bad batch)
	// pending buffers out-of-order datagram payloads (retained copies —
	// the receive buffer is reused per read) until the sequence gap fills.
	pending map[uint64][]byte
}

type udpLane struct {
	s      *Server
	pc     *net.UDPConn
	window uint64

	mu   sync.Mutex
	srcs map[uint64]*udpSource

	done chan struct{}
}

func newUDPLane(s *Server, addr string, window int) (*udpLane, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udp lane: %w", err)
	}
	pc, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("udp lane: %w", err)
	}
	// Producers burst whole windows of large batch datagrams; the default
	// socket buffer (~200KiB) overflows under a handful of sources and
	// turns into a retransmit storm. Best effort — the kernel clamps to
	// its rmem_max.
	_ = pc.SetReadBuffer(4 << 20)
	l := &udpLane{
		s:      s,
		pc:     pc,
		window: uint64(window),
		srcs:   make(map[uint64]*udpSource),
		done:   make(chan struct{}),
	}
	go l.readLoop()
	return l, nil
}

// close stops the lane and waits for the reader to finish its in-flight
// datagram. Callers must keep the dispatcher draining until this returns —
// the reader may be blocked enqueueing.
func (l *udpLane) close() {
	l.pc.Close()
	<-l.done
}

func (l *udpLane) readLoop() {
	defer close(l.done)
	buf := make([]byte, proto.MaxDatagram)
	for {
		n, _, err := l.pc.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		d, err := proto.DecodeDatagram(buf[:n])
		if err != nil {
			// Pre-sequencing rejection: truncated, version-skewed or failing
			// its checksum. Counts in the aggregate and in its own series.
			l.s.tel.AddUDPDrop()
			l.s.tel.AddUDPCRCFailure()
			continue
		}
		l.s.tel.AddUDPDatagram()
		l.ingest(d)
	}
}

// ingest routes one valid datagram: apply in order, buffer ahead-of-order
// within the window, drop duplicates and window overflows. Only the read
// loop calls it, so source state mutates single-threaded; the lock exists
// for ack polls reading counters from other goroutines.
func (l *udpLane) ingest(d proto.Datagram) {
	l.mu.Lock()
	src := l.srcs[d.Source]
	if src == nil {
		src = &udpSource{pending: make(map[uint64][]byte)}
		l.srcs[d.Source] = src
	}
	switch {
	case d.Seq <= src.cum:
		src.dups++
		l.mu.Unlock()
		l.s.tel.AddUDPDup()
		return
	case d.Seq > src.cum+l.window:
		src.drops++
		l.mu.Unlock()
		l.s.tel.AddUDPDrop()
		l.s.tel.AddUDPWindowDrop()
		return
	case d.Seq != src.cum+1:
		if _, buffered := src.pending[d.Seq]; buffered {
			src.dups++
			l.mu.Unlock()
			l.s.tel.AddUDPDup()
			return
		}
		// Out of order: park a retained copy until the gap fills. The
		// datagram payload aliases the receive buffer, which the next
		// read overwrites.
		src.pending[d.Seq] = proto.RetainPayload(d.Payload)
		l.mu.Unlock()
		l.s.tel.AddUDPReorder()
		return
	}
	l.mu.Unlock()
	// In order: apply directly from the receive buffer, then drain any
	// buffered successors the gap was holding back.
	l.apply(src, d.Seq, d.Payload, false)
	for {
		l.mu.Lock()
		next := src.cum + 1
		p, ok := src.pending[next]
		if ok {
			delete(src.pending, next)
		}
		l.mu.Unlock()
		if !ok {
			return
		}
		l.apply(src, next, p, true)
	}
}

// apply decodes, plans and enqueues one in-sequence batch, then advances
// the source watermark. The enqueue blocks when the ingest queue is full —
// the lane's flow control is the socket buffer (and, past that, the
// network's willingness to drop). A batch that decodes badly counts as a
// drop but still advances the watermark: its CRC proved it is what the
// producer sent, so retransmission would not help, and stalling the
// source forever helps less. A draining server instead refuses WITHOUT
// advancing — the batch was not applied, and the watermark promises
// applied-exactly-once; the producer's flush fails on its control
// connection shortly after.
func (l *udpLane) apply(src *udpSource, seq uint64, payload []byte, retained bool) {
	if retained {
		defer proto.ReleasePayload(payload)
	}
	if l.s.draining.Load() {
		l.mu.Lock()
		src.drops++
		l.mu.Unlock()
		l.s.tel.AddUDPDrop()
		return
	}
	b := l.s.def.Pool.NewBatch()
	tuples, err := l.s.decodeBatch(b.Arena(), payload)
	if err != nil {
		b.Release()
	} else {
		// Datagrams carry no trace context (the lane is fire-and-forget), so
		// the batch's spans are roots.
		if !l.s.enqueue(l.s.def, l.s.planInto(l.s.def, b, tuples, obs.Link{}), true) {
			// The default lane closed mid-shutdown: the batch was not
			// applied, so like the draining branch this refuses WITHOUT
			// advancing the watermark.
			b.Release()
			l.mu.Lock()
			src.drops++
			l.mu.Unlock()
			l.s.tel.AddUDPDrop()
			return
		}
	}
	l.mu.Lock()
	src.cum = seq
	if err == nil {
		src.applied++
	} else {
		src.drops++
	}
	l.mu.Unlock()
	if err != nil {
		l.s.tel.AddUDPDrop()
		l.s.tel.AddUDPDecodeDrop()
	} else {
		l.s.tel.AddUDPApplied()
	}
}

// ack reports the source's cumulative state for a TUDPAck poll.
func (l *udpLane) ack(source uint64) proto.UDPAck {
	l.mu.Lock()
	defer l.mu.Unlock()
	src := l.srcs[source]
	if src == nil {
		return proto.UDPAck{}
	}
	return proto.UDPAck{Cum: src.cum, Applied: src.applied, Dups: src.dups, Drops: src.drops}
}
