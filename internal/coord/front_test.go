package coord

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"implicate/internal/client"
	"implicate/internal/proto"
	"implicate/internal/raceflag"
	"implicate/internal/stream"
)

// holdIngest is a frame-aware TCP proxy in front of the leaf at addr: every
// request passes straight through except ingest frames, which it holds, in
// order, until release closes. Behind it sits a leaf whose deliveries stall
// while it keeps answering boots, pings and snapshot pulls.
func holdIngest(t *testing.T, addr string, release <-chan struct{}) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", addr)
			if err != nil {
				down.Close()
				continue
			}
			mu.Lock()
			conns = append(conns, down, up)
			mu.Unlock()
			wg.Add(2)
			go func() {
				defer wg.Done()
				io.Copy(down, up)
				down.Close()
				up.Close()
			}()
			go func() {
				defer wg.Done()
				forwardHoldingIngest(down, up, release)
				down.Close()
				up.Close()
			}()
		}
	}()
	return ln.Addr().String()
}

// forwardHoldingIngest copies request frames from down to up until down
// fails, sending ingest frames through one goroutine that starts only once
// release closes.
func forwardHoldingIngest(down, up net.Conn, release <-chan struct{}) {
	var wmu sync.Mutex
	send := func(f proto.Frame) {
		out, err := proto.AppendFrame(nil, f)
		if err != nil {
			return
		}
		wmu.Lock()
		up.Write(out)
		wmu.Unlock()
	}
	// A feeder keeps one batch in flight, so one slot would do; the bound
	// only has to exceed that.
	held := make(chan proto.Frame, maxPendingBatches)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-release
		for f := range held {
			send(f)
		}
	}()
	fr := proto.NewFrameReader(down)
	for {
		f, err := fr.Next()
		if err != nil {
			break
		}
		if f.Type == proto.TIngest {
			f.Payload = bytes.Clone(f.Payload)
			held <- f
			continue
		}
		send(f)
	}
	close(held)
	<-done
}

// TestQueryOvertakesBlockedIngest is the front-end's head-of-line property.
// One connection pipelines ingest frames that block — their leaf's pending
// journal is full behind a delivery held at a proxy — and then a query, a
// boot and a ping. All three are answered while every one of those ingest
// frames is still unacknowledged. Once the delivery is released the acks
// arrive in send order, and the fleet is bit-identical to a shadow fed the
// same stream.
func TestQueryOvertakesBlockedIngest(t *testing.T) {
	schema := fleetSchema(t)
	flMain, flShadow := newFleet(t, schema), newFleet(t, schema)
	t.Cleanup(flMain.closeAll)
	t.Cleanup(flShadow.closeAll)

	const victim, frames = 1, 4
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce() // before the cleanups, which wait for held deliveries
	specs := make([]LeafSpec, 2)
	for i := range specs {
		name := fmt.Sprintf("leaf%d", i)
		specs[i] = LeafSpec{Name: name, Addr: flMain.start(name)}
	}
	specs[victim].Addr = holdIngest(t, specs[victim].Addr, release)
	main := newCoordinator(t, flMain, specs)
	shadow := startCoordinator(t, flShadow, 2, "leaf")
	fe, err := Serve(main, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })

	// Both leaves get traffic; the victim's first entry is held in flight,
	// so its pending journal fills to the bound and stays there.
	var fed []stream.Tuple
	ingest := func(tuples []stream.Tuple) {
		t.Helper()
		if err := main.Ingest(tuples); err != nil {
			t.Fatal(err)
		}
		fed = append(fed, tuples...)
	}
	ingest(fleetTuples(1500))
	for batch := routedBatch(main, victim); main.FleetTelemetry()[victim].PendingEntries < maxPendingBatches; {
		ingest(batch)
	}

	// Every frame routes more than FlushTuples to the victim, so the first
	// blocks on the full journal and the rest queue behind it.
	frame := append(routedBatch(main, victim), fleetTuples(200)...)
	payload := mustEncode(t, schema, frame)
	var out []byte
	for id := uint64(1); id <= frames; id++ {
		out, _ = proto.AppendFrame(out, proto.Frame{Type: proto.TIngest, ID: id, Payload: payload})
		fed = append(fed, frame...)
	}
	const queryID, bootID, pingID = 101, 102, 103
	out, _ = proto.AppendFrame(out, proto.Frame{Type: proto.TQuery, ID: queryID, Payload: proto.StmtReq{Stmt: 0}.Encode()})
	out, _ = proto.AppendFrame(out, proto.Frame{Type: proto.TBoot, ID: bootID})
	out, _ = proto.AppendFrame(out, proto.Frame{Type: proto.THealth, ID: pingID})

	c, err := net.Dial("tcp", fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	replies := make(chan proto.Frame, frames+3)
	go func() {
		defer close(replies)
		fr := proto.NewFrameReader(c)
		for {
			f, err := fr.Next()
			if err != nil {
				return
			}
			f.Payload = bytes.Clone(f.Payload)
			replies <- f
		}
	}()
	if _, err := c.Write(out); err != nil {
		t.Fatal(err)
	}
	next := func() proto.Frame {
		t.Helper()
		select {
		case f, ok := <-replies:
			if !ok {
				t.Fatal("front-end connection closed")
			}
			return f
		case <-time.After(10 * time.Second):
			t.Fatal("no reply within 10s")
		}
		return proto.Frame{}
	}

	for answered := map[uint64]bool{}; len(answered) < 3; {
		f := next()
		if f.ID <= frames {
			t.Fatalf("ingest frame %d acknowledged (%s) while its leaf's journal is full", f.ID, f.Type)
		}
		if f.Type != proto.TResult {
			msg, _ := proto.DecodeError(f.Payload)
			t.Fatalf("request %d answered %s %q", f.ID, f.Type, msg)
		}
		switch f.ID {
		case queryID:
			if _, err := proto.DecodeQueryResult(f.Payload); err != nil {
				t.Fatal(err)
			}
		case bootID:
			if b, err := proto.DecodeBoot(f.Payload); err != nil || b.Nonce != main.boot {
				t.Fatalf("boot reply %+v err %v, want nonce %016x", b, err, main.boot)
			}
		}
		answered[f.ID] = true
	}
	if row := main.FleetTelemetry()[victim]; row.PendingEntries < maxPendingBatches {
		t.Fatalf("victim has %d entries pending, want the bound %d: the ingest frames were never blocked", row.PendingEntries, maxPendingBatches)
	}

	releaseOnce()
	for id := uint64(1); id <= frames; id++ {
		f := next()
		if f.ID != id || f.Type != proto.TOK {
			t.Fatalf("reply %d is %s for request %d, want the ack of ingest frame %d", id, f.Type, f.ID, id)
		}
		if ack, err := proto.DecodeIngestAck(f.Payload); err != nil || ack.Tuples != int64(len(frame)) {
			t.Fatalf("ack %d: %+v err %v, want %d tuples", id, ack, err, len(frame))
		}
	}

	if err := shadow.Ingest(fed); err != nil {
		t.Fatal(err)
	}
	for _, co := range []*Coordinator{main, shadow} {
		if err := co.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for stmt := range fleetSQL {
		got, err := main.Snapshot(stmt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := shadow.Snapshot(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tuples != int64(len(fed)) || !bytes.Equal(got.Sketch, want.Sketch) {
			t.Errorf("stmt %d: fleet (%d tuples) diverged from the shadow (%d tuples)", stmt, got.Tuples, want.Tuples)
		}
	}
}

// TestFrontendConnIngestAllocs pins the connection path: a 1000-tuple
// ingest frame written to a live front-end connection — read into a
// recycled body, handed to the ingest goroutine, routed, journaled,
// acknowledged and written back, every goroutine's allocations counted.
// The budget is the handler's one: an exact-size journal copy per frame on
// average (three leaves, FlushTuples 1000). The ack is encoded in place
// into the connection writer's buffer, and the handoff from reader to
// ingest goroutine to writer adds nothing; one allocation per frame there
// would read 2.
func TestFrontendConnIngestAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-detector bookkeeping allocates; the pin only holds on plain builds")
	}
	schema := fleetSchema(t)
	co := offlineCoordinator(t, schema, 3, 1000)
	fe, err := Serve(co, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })
	c, err := net.Dial("tcp", fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	frame, err := proto.AppendFrame(nil, proto.Frame{Type: proto.TIngest, ID: 1, Payload: mustEncode(t, schema, fleetTuples(1000))})
	if err != nil {
		t.Fatal(err)
	}
	fr := proto.NewFrameReader(c)
	roundTrip := func() {
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
		if f, err := fr.Next(); err != nil || f.Type != proto.TOK {
			t.Fatalf("ingest reply %s, err %v", f.Type, err)
		}
		// No feeder drains an offline journal; forget what was journaled.
		for _, lf := range co.leaves {
			lf.mu.Lock()
			lf.journal, lf.nextSend = lf.journal[:0], 0
			lf.mu.Unlock()
		}
	}
	roundTrip() // the first frame sizes the connection's buffers
	if allocs := testing.AllocsPerRun(40, roundTrip); allocs > 1 {
		t.Errorf("front-end connection ingest of a 1000-tuple frame: %.1f allocs, want <= 1", allocs)
	}
}

// TestFrontendConnGoroutinesExit checks that a front-end connection's
// goroutines — the client's reader and writer, the front-end's reader,
// ingest goroutine and writer — all exit: 50 clients dial, pipeline 8
// batches and close, 10 more are cut front-end-side with their batches in
// flight, and the goroutine count comes back to where it started.
func TestFrontendConnGoroutinesExit(t *testing.T) {
	schema := fleetSchema(t)
	fe, err := Serve(offlineCoordinator(t, schema, 3, 1000), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })
	payload := mustEncode(t, schema, fleetTuples(10))
	base := runtime.NumGoroutine()
	for i := 0; i < 60; i++ {
		cl, err := client.Dial(fe.Addr(), schema, client.Options{Conns: 1})
		if err != nil {
			t.Fatal(err)
		}
		var pend []*client.PendingIngest
		for j := 0; j < 8; j++ {
			p, err := cl.IngestAsync(payload, 10)
			if err != nil {
				t.Fatal(err)
			}
			pend = append(pend, p)
		}
		if i >= 50 {
			fe.connMu.Lock()
			for c := range fe.conns {
				c.Close()
			}
			fe.connMu.Unlock()
		}
		for _, p := range pend {
			if err := p.Wait(); err != nil && i < 50 {
				t.Fatal(err)
			}
		}
		cl.Close()
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, %d before the connections:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}
