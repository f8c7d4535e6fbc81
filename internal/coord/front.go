// The coordinator's wire front-end: a TCP listener speaking internal/proto
// so producers and queriers talk to the fleet exactly as they would to one
// impserved — the pooled client, impbench and a parent coordinator all work
// unchanged. Ingest frames route into the coordinator's partition table on
// their wire bytes and are acknowledged once journaled within the pending
// bound (durability at this tier is the journal plus the leaves'
// checkpoints); Query and Snapshot answer from the merged fleet state;
// Cluster reports membership. One reader per connection, replies written in
// request order.
//
// This loop is the fleet's data plane: every tuple crosses it before any
// leaf sketches it, so the §2 tree only pays off while it is cheaper than
// the leaves it feeds. Measured on the benchmark's fleet workload (3
// leaves, 1000-tuple frames, 2 cores): serveConn is 36% of process CPU —
// validation 7%, route key and hash 10%, record and journal copies 10% —
// against 44% for the three leaf servers. Decoding frames into tuples and
// re-encoding them for the journal put it at 64% against 17%, which is why
// ingest routes on the raw records (Coordinator.ingestEncoded; DESIGN.md
// §13).
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

// frontDrainGrace mirrors the server's: how long connection readers may
// finish in-flight requests after Close.
const frontDrainGrace = 200 * time.Millisecond

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
	fr := proto.NewFrameReader(c)
	var wbuf []byte
	for {
		f, err := fr.Next()
		if err != nil {
			return // EOF, deadline or protocol error; nothing to answer on
		}
		resp := fe.handle(f)
		wbuf, err = proto.AppendFrame(wbuf[:0], resp)
		if err != nil {
			return
		}
		if _, err := c.Write(wbuf); err != nil {
			return
		}
	}
}

func (fe *Frontend) handle(f proto.Frame) proto.Frame {
	start := time.Now()
	rpc, resp, ok := fe.dispatch(f)
	if ok {
		// One clock read serves both the latency histogram and the RPC span —
		// parented under the inbound trace context when the frame carried
		// one, so a parent coordinator's delivery spans adopt this tier's
		// handling the same way leaf spans adopt this coordinator's.
		dur := time.Since(start)
		fe.co.tel.Observe(rpc, dur)
		fe.co.tracer.RecordLinked(obs.Link{Trace: f.TC.Trace, Parent: f.TC.Parent},
			obs.SpanRPC, int(rpc), 0, start, dur)
	}
	return resp
}

// dispatch routes one request frame; ok reports whether the type maps to
// an instrumented RPC code (TCluster and unknown types do not).
func (fe *Frontend) dispatch(f proto.Frame) (rpc telemetry.RPC, resp proto.Frame, ok bool) {
	switch f.Type {
	case proto.TIngest:
		return telemetry.RPCIngest, fe.handleIngest(f), true
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

func (fe *Frontend) handleIngest(f proto.Frame) proto.Frame {
	n, err := fe.co.ingestEncoded(f.Payload)
	if err != nil {
		return errFrame(f.ID, err)
	}
	return proto.Frame{Type: proto.TOK, ID: f.ID, Payload: proto.IngestAck{Tuples: n}.Encode()}
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
