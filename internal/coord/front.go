// The coordinator's wire front-end: a TCP listener speaking internal/proto
// so producers and queriers talk to the fleet exactly as they would to one
// impserved — the pooled client, impbench and a parent coordinator all work
// unchanged. Ingest frames route into the coordinator's partition table on
// their wire bytes and are acknowledged once journaled within the pending
// bound (durability at this tier is the journal plus the leaves'
// checkpoints); Query and Snapshot answer from the merged fleet state;
// Cluster reports membership.
//
// Each connection runs two goroutines besides its writer's flusher. The
// reader parses frames and answers every request except ingest inline, as
// soon as it is parsed; it queues ingest frames for the connection's ingest
// goroutine, which routes and acknowledges them one at a time in arrival
// order. A query therefore never waits behind the ingest frames pipelined
// ahead of it — on the benchmark's fleet workload that wait was two thirds
// of a query's latency — while routing order, journal order and the
// determinism contract are the single goroutine's, as before. Both goroutines queue their replies on the
// connection's proto.Writer, whose flusher sends whatever has accumulated in
// one write; replies can therefore leave out of request order, and clients
// match them to requests by id.
//
// The ingest goroutine is the fleet's data plane: every tuple crosses it
// before any leaf sketches it, so the §2 tree only pays off while it is
// cheaper than the leaves it feeds. Measured on the benchmark's fleet
// workload (3 leaves, 1000-tuple frames, 2 cores), when the reader still
// routed inline: serveConn was 36% of process CPU — validation 7%, route
// key and hash 10%, record and journal copies 10% — against 44% for the
// three leaf servers. Decoding frames into tuples and re-encoding them for
// the journal put it at 64% against 17%, which is why ingest routes on the
// raw records (Coordinator.ingestEncoded; DESIGN.md §13).
package coord

import (
	"fmt"
	"net"
	"sync"
	"time"

	"implicate/internal/obs"
	"implicate/internal/proto"
	"implicate/internal/telemetry"
)

const (
	// frontDrainGrace mirrors the server's: how long connection readers may
	// finish in-flight requests after Close.
	frontDrainGrace = 200 * time.Millisecond
	// frontIngestDepth bounds each connection's queue of ingest frames read
	// but not yet routed. It is the producer window the benchmark and the
	// pipelining callers keep in flight, so such a producer never stalls the
	// reader; a deeper pipeline stalls it once this many frames wait, which
	// caps a connection's buffered frame bodies at frontIngestDepth+2.
	frontIngestDepth = 16
)

// Frontend serves the coordinator over the wire protocol. Create with
// Serve.
type Frontend struct {
	co *Coordinator
	ln net.Listener

	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup

	closeOnce sync.Once
}

// Serve starts a front-end listener for co on addr.
func Serve(co *Coordinator, addr string) (*Frontend, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	fe := &Frontend{co: co, ln: ln, conns: make(map[net.Conn]struct{})}
	fe.wg.Add(1)
	go fe.acceptLoop()
	return fe, nil
}

// Addr returns the bound listen address (useful with ":0").
func (fe *Frontend) Addr() string { return fe.ln.Addr().String() }

func (fe *Frontend) acceptLoop() {
	defer fe.wg.Done()
	for {
		c, err := fe.ln.Accept()
		if err != nil {
			return // listener closed
		}
		fe.connMu.Lock()
		if fe.draining {
			fe.connMu.Unlock()
			c.Close()
			continue
		}
		fe.conns[c] = struct{}{}
		fe.wg.Add(1)
		fe.connMu.Unlock()
		go fe.serveConn(c)
	}
}

func (fe *Frontend) serveConn(c net.Conn) {
	defer fe.wg.Done()
	defer func() {
		fe.connMu.Lock()
		delete(fe.conns, c)
		fe.connMu.Unlock()
		c.Close()
	}()
	w := proto.NewWriter(c, func(error) { c.Close() }) // a dead write side ends the reader too
	ingests := make(chan queuedIngest, frontIngestDepth)
	// Every frame body the connection owns is the reader's, queued, being
	// routed, or here: at most frontIngestDepth+2, so recycling never blocks.
	free := make(chan []byte, frontIngestDepth+2)
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		fe.ingestLoop(w, ingests, free)
	}()
	fr := proto.NewFrameReader(c)
	var buf []byte
	for {
		f, b, err := fr.NextInto(buf)
		if err != nil {
			break // EOF, deadline or protocol error; nothing to answer on
		}
		if f.Type == proto.TIngest {
			// The frame's body goes with it; read the next one into a
			// recycled body, or a fresh one while all of them are out.
			ingests <- queuedIngest{f: f, buf: b}
			select {
			case buf = <-free:
			default:
				buf = nil
			}
			continue
		}
		buf = b
		if err := w.Write(fe.handle(f)); err != nil {
			// An oversize reply fails alone, so say why. After a write
			// error this fails too; the fail hook has closed the connection
			// and the next read ends the loop.
			w.Write(errFrame(f.ID, err))
		}
	}
	close(ingests)
	<-ingestDone
	w.Close()
}

// queuedIngest is an ingest frame on its way from a connection's reader to
// its ingest goroutine, with the body buffer the frame aliases.
type queuedIngest struct {
	f   proto.Frame
	buf []byte
}

// ingestLoop is a connection's ingest goroutine: it routes the queued frames
// one at a time, in arrival order, acknowledges each, and hands its body
// buffer back to the reader. Once the connection's writer has failed it
// stops routing — the connection is gone and the rest would never be
// acknowledged — but drains the queue so the reader is never left blocked
// on it.
func (fe *Frontend) ingestLoop(w *proto.Writer, ingests <-chan queuedIngest, free chan<- []byte) {
	var err error
	for q := range ingests {
		if err == nil {
			err = fe.ingest(w, q.f)
		}
		free <- q.buf
	}
}

// ingest routes one ingest frame and queues its reply: the ack is encoded
// in place into the writer's buffer, so routing's journal copy is the
// frame's only allocation.
func (fe *Frontend) ingest(w *proto.Writer, f proto.Frame) error {
	start := time.Now()
	n, err := fe.co.ingestEncoded(f.Payload)
	fe.observe(telemetry.RPCIngest, f, start)
	if err != nil {
		return w.Write(errFrame(f.ID, err))
	}
	return w.WriteFunc(proto.TOK, f.ID, proto.IngestAck{Tuples: n}.AppendTo)
}

func (fe *Frontend) handle(f proto.Frame) proto.Frame {
	start := time.Now()
	rpc, resp, ok := fe.dispatch(f)
	if ok {
		fe.observe(rpc, f, start)
	}
	return resp
}

// observe records one handled request: one clock read serves both the
// latency histogram and the RPC span — parented under the inbound trace
// context when the frame carried one, so a parent coordinator's delivery
// spans adopt this tier's handling the same way leaf spans adopt this
// coordinator's.
func (fe *Frontend) observe(rpc telemetry.RPC, f proto.Frame, start time.Time) {
	dur := time.Since(start)
	fe.co.tel.Observe(rpc, dur)
	fe.co.tracer.RecordLinked(obs.Link{Trace: f.TC.Trace, Parent: f.TC.Parent},
		obs.SpanRPC, int(rpc), 0, start, dur)
}

// dispatch answers one non-ingest request frame; ok reports whether the
// type maps to an instrumented RPC code (TCluster and unknown types do
// not). Ingest frames take the connection's ingest goroutine instead.
func (fe *Frontend) dispatch(f proto.Frame) (rpc telemetry.RPC, resp proto.Frame, ok bool) {
	switch f.Type {
	case proto.TQuery:
		req, err := proto.DecodeQueryReq(f.Payload)
		if err != nil {
			return telemetry.RPCQuery, errFrame(f.ID, err), true
		}
		res, err := fe.co.Query(int(req.Stmt))
		if err != nil {
			return telemetry.RPCQuery, errFrame(f.ID, err), true
		}
		return telemetry.RPCQuery, proto.Frame{Type: proto.TResult, ID: f.ID, Payload: res.Encode()}, true
	case proto.TSnapshot:
		req, err := proto.DecodeSnapshotReq(f.Payload)
		if err != nil {
			return telemetry.RPCSnapshot, errFrame(f.ID, err), true
		}
		res, err := fe.co.Snapshot(int(req.Stmt))
		if err != nil {
			return telemetry.RPCSnapshot, errFrame(f.ID, err), true
		}
		return telemetry.RPCSnapshot, proto.Frame{Type: proto.TResult, ID: f.ID, Payload: res.Encode()}, true
	case proto.TCluster:
		return 0, proto.Frame{Type: proto.TResult, ID: f.ID, Payload: fe.co.Status().Encode()}, false
	case proto.TBoot:
		// The coordinator journals in memory, so its restart loses routing
		// state the same way a leaf restart loses uncheckpointed tuples —
		// stateful feeders fence against it just like against a leaf.
		return telemetry.RPCBoot, proto.Frame{Type: proto.TResult, ID: f.ID, Payload: proto.Boot{Nonce: fe.co.boot}.Encode()}, true
	case proto.THealth:
		// The coordinator holds no estimators of its own, and Ping rides
		// this type — an empty report keeps liveness probes cheap instead of
		// fanning out to N leaves per probe. The rolled-up fleet health lives
		// on the admin endpoint and in FleetHealth.
		return telemetry.RPCHealth, proto.Frame{Type: proto.TResult, ID: f.ID, Payload: obs.EncodeHealth(nil)}, true
	case proto.TStats:
		return telemetry.RPCStats, proto.Frame{Type: proto.TResult, ID: f.ID, Payload: fe.co.tel.Snapshot().Encode()}, true
	case proto.TTrace:
		// With tracing off this answers the empty single-node dump any
		// pre-fleet client decodes; armed, it assembles the cross-node fleet
		// trace (coordinator spans + every reachable leaf's ring, causally
		// ordered and node-labeled).
		if fe.co.tracer == nil {
			return telemetry.RPCTrace, proto.Frame{Type: proto.TResult, ID: f.ID, Payload: obs.EncodeSpans(nil)}, true
		}
		return telemetry.RPCTrace, proto.Frame{Type: proto.TResult, ID: f.ID, Payload: obs.EncodeFleetTrace(fe.co.FleetTrace())}, true
	case proto.TUDPAck:
		// No UDP lane at this tier; the zero watermark is the protocol's
		// "lane disabled" answer.
		if _, err := proto.DecodeUDPAckReq(f.Payload); err != nil {
			return telemetry.RPCUDPAck, errFrame(f.ID, err), true
		}
		return telemetry.RPCUDPAck, proto.Frame{Type: proto.TResult, ID: f.ID, Payload: proto.UDPAck{}.Encode()}, true
	}
	return 0, errFrame(f.ID, fmt.Errorf("unsupported request type %s", f.Type)), false
}

func errFrame(id uint64, err error) proto.Frame {
	return proto.Frame{Type: proto.TError, ID: id, Payload: proto.EncodeError(err.Error())}
}

// Close stops accepting, lets connection readers finish briefly, then cuts
// them. The coordinator itself is left running — callers own its shutdown.
func (fe *Frontend) Close() error {
	fe.closeOnce.Do(func() {
		fe.connMu.Lock()
		fe.draining = true
		deadline := time.Now().Add(frontDrainGrace)
		for c := range fe.conns {
			c.SetReadDeadline(deadline)
		}
		fe.connMu.Unlock()
		fe.ln.Close()
		fe.wg.Wait()
	})
	return nil
}
