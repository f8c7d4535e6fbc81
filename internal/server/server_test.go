package server

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"implicate/internal/checkpoint"
	"implicate/internal/client"
	"implicate/internal/core"
	"implicate/internal/exact"
	"implicate/internal/imps"
	"implicate/internal/proto"
	"implicate/internal/query"
	"implicate/internal/stream"
)

const testSQL = `SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B WITH SUPPORT >= 2, MULTIPLICITY <= 2, CONFIDENCE >= 0.8 TOP 1`

func testSchema(t *testing.T) *stream.Schema {
	t.Helper()
	s, err := stream.NewSchema("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func exactBackend() query.Backend {
	return func(cond imps.Conditions) (imps.Estimator, error) { return exact.NewCounter(cond) }
}

// sketchBackend builds fixed-seed sketches and records the conditions the
// engine hands it, so tests can build merge-compatible peer sketches.
func sketchBackend(seed uint64, captured *imps.Conditions) query.Backend {
	return func(cond imps.Conditions) (imps.Estimator, error) {
		if captured != nil {
			*captured = cond
		}
		return core.NewSketch(cond, core.Options{Seed: seed})
	}
}

func testEngine(t *testing.T, schema *stream.Schema, backend query.Backend) *query.Engine {
	t.Helper()
	eng := query.NewEngine(schema)
	if _, err := eng.RegisterSQL(testSQL, backend); err != nil {
		t.Fatal(err)
	}
	return eng
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dialClient(t *testing.T, s *Server, schema *stream.Schema, opt client.Options) *client.Client {
	t.Helper()
	cl, err := client.Dial(s.Addr(), schema, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// makeTuples builds n tuples: sources s0..s(nSrc-1) round-robin, each with a
// single destination, so every supported source implies.
func makeTuples(n, nSrc int) []stream.Tuple {
	ts := make([]stream.Tuple, n)
	for i := range ts {
		src := i % nSrc
		ts[i] = stream.Tuple{fmt.Sprintf("s%d", src), fmt.Sprintf("d%d", src%17)}
	}
	return ts
}

// waitTuples polls Query until the server's engine reports the wanted
// applied-tuple count (acks confirm enqueueing, not application).
func waitTuples(t *testing.T, cl *client.Client, want int64) proto.QueryResult {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := cl.Query(0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tuples >= want {
			if res.Tuples > want {
				t.Fatalf("engine applied %d tuples, want %d", res.Tuples, want)
			}
			return res
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine stuck at %d of %d tuples", res.Tuples, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerIngestQueryStats(t *testing.T) {
	schema := testSchema(t)
	srv := startServer(t, Config{Schema: schema, Engine: testEngine(t, schema, exactBackend())})
	cl := dialClient(t, srv, schema, client.Options{})

	// A shadow engine fed the same tuples gives the expected exact answer
	// (exact counting is order-independent, so producer/worker interleaving
	// cannot affect it).
	shadow := testEngine(t, schema, exactBackend())

	tuples := makeTuples(300, 10)
	for i := 0; i < 300; i += 100 {
		if err := cl.IngestBatch(tuples[i : i+100]); err != nil {
			t.Fatal(err)
		}
	}
	shadow.ProcessBatch(tuples)

	res := waitTuples(t, cl, 300)
	if want := shadow.Statements()[0].Count(); res.Count != want {
		t.Fatalf("server count %v, shadow count %v", res.Count, want)
	}

	sn, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sn.TuplesIngested != 300 || sn.Batches != 3 || sn.BatchesRejected != 0 {
		t.Fatalf("stats %+v", sn)
	}
	if sn.Latency[0].Count() != 3 { // RPCIngest
		t.Fatalf("ingest latency observations %d, want 3", sn.Latency[0].Count())
	}
}

func TestServerIngestRejectsBadBatches(t *testing.T) {
	schema := testSchema(t)
	srv := startServer(t, Config{Schema: schema, Engine: testEngine(t, schema, exactBackend()), MaxBatchTuples: 10})
	cl := dialClient(t, srv, schema, client.Options{})

	// Schema mismatch: the batch header names different attributes.
	other, err := stream.NewSchema("X", "B")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := client.EncodeBatch(other, makeTuples(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	var remote *client.RemoteError
	if err := cl.IngestEncoded(payload, 5); !errors.As(err, &remote) || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch not rejected: %v", err)
	}

	// Oversized batch.
	if err := cl.IngestBatch(makeTuples(11, 5)); !errors.As(err, &remote) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversize batch not rejected: %v", err)
	}

	// Garbage payload.
	if err := cl.IngestEncoded([]byte("not a batch"), 1); !errors.As(err, &remote) {
		t.Fatalf("garbage payload not rejected: %v", err)
	}

	// The connection survives all three errors and the server state is clean.
	sn, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sn.TuplesIngested != 0 || sn.Batches != 0 {
		t.Fatalf("rejected batches leaked into counters: %+v", sn)
	}
}

func TestServerBackpressure(t *testing.T) {
	schema := testSchema(t)
	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // a failed assertion must not leave the worker stuck in the gate
	cfg := Config{
		Schema:     schema,
		Engine:     testEngine(t, schema, exactBackend()),
		QueueDepth: 1,
		RetryAfter: 5 * time.Millisecond,
		gate:       func() { entered <- struct{}{}; <-release },
	}
	srv := startServer(t, cfg)

	// Raw proto connection: the pooled client would absorb the TBusy we want
	// to observe.
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	payload, err := client.EncodeBatch(schema, makeTuples(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	fr := proto.NewFrameReader(nc)
	send := func(id uint64) proto.Frame {
		t.Helper()
		if err := proto.WriteFrame(nc, proto.Frame{Type: proto.TIngest, ID: id, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		f, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.ID != id {
			t.Fatalf("response id %d for request %d", f.ID, id)
		}
		return f
	}

	// Batch 1 is taken by the worker, which then blocks in the gate.
	if f := send(1); f.Type != proto.TOK {
		t.Fatalf("batch 1: %s", f.Type)
	}
	<-entered
	// Batch 2 fills the 1-deep queue.
	if f := send(2); f.Type != proto.TOK {
		t.Fatalf("batch 2: %s", f.Type)
	}
	// Batch 3 must be refused with the explicit backpressure reply.
	f := send(3)
	if f.Type != proto.TBusy {
		t.Fatalf("batch 3: got %s, want Busy", f.Type)
	}
	busy, err := proto.DecodeBusy(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if busy.RetryAfter != 5*time.Millisecond {
		t.Fatalf("retry hint %v, want 5ms", busy.RetryAfter)
	}

	sn := srv.Telemetry().Snapshot()
	if sn.Batches != 2 || sn.BatchesRejected != 1 {
		t.Fatalf("accepted=%d rejected=%d, want 2/1", sn.Batches, sn.BatchesRejected)
	}
	if sn.QueueHighWater != 1 {
		t.Fatalf("queue high water %d, want 1", sn.QueueHighWater)
	}
	// A refused batch was not enqueued: after the worker drains, retrying it
	// succeeds and nothing was double-counted. The dispatcher takes batch 2
	// off the queue asynchronously, so retry on Busy the way a client does.
	unblock()
	for id := uint64(4); ; id++ {
		f := send(id)
		if f.Type == proto.TOK {
			break
		}
		if f.Type != proto.TBusy || id > 1000 {
			t.Fatalf("retried batch: %s", f.Type)
		}
		time.Sleep(cfg.RetryAfter)
	}
	cl := dialClient(t, srv, schema, client.Options{})
	waitTuples(t, cl, 30)
}

func TestServerMerge(t *testing.T) {
	schema := testSchema(t)
	var cond imps.Conditions
	backend := sketchBackend(7, &cond)
	eng := query.NewEngine(schema)
	if _, err := eng.RegisterSQL(testSQL, backend); err != nil { // stmt 0: sketch
		t.Fatal(err)
	}
	if _, err := eng.RegisterSQL(testSQL, exactBackend()); err != nil { // stmt 1: exact
		t.Fatal(err)
	}
	// stmt 2 shares stmt 0's estimator (same predicate and backend, NOT
	// IMPLIES mode).
	notSQL := strings.Replace(testSQL, "A IMPLIES B", "A NOT IMPLIES B", 1)
	if st, err := eng.RegisterSQL(notSQL, backend); err != nil {
		t.Fatal(err)
	} else if !st.Shared() {
		t.Fatal("test setup: statement 2 did not share")
	}
	srv := startServer(t, Config{Schema: schema, Engine: eng})
	cl := dialClient(t, srv, schema, client.Options{})

	// A merge-compatible leaf sketch with real contents.
	src := core.MustSketch(cond, core.Options{Seed: 7})
	for _, tp := range makeTuples(400, 20) {
		src.Add(tp[0], tp[1])
	}
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SnapshotMerge(0, data); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := src.ImplicationCount(); res.Count != want {
		t.Fatalf("merged count %v, want the leaf's %v", res.Count, want)
	}
	if sn := srv.Telemetry().Snapshot(); sn.Merges != 1 {
		t.Fatalf("merge counter %d, want 1", sn.Merges)
	}

	var remote *client.RemoteError
	// Mismatched sketch configuration must be a reported error.
	bad := core.MustSketch(cond, core.Options{Seed: 8})
	badData, err := bad.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SnapshotMerge(0, badData); !errors.As(err, &remote) {
		t.Fatalf("mismatched seed merge not rejected: %v", err)
	}
	// Corrupt sketch bytes.
	if err := cl.SnapshotMerge(0, data[:len(data)-2]); !errors.As(err, &remote) {
		t.Fatalf("corrupt sketch not rejected: %v", err)
	}
	// A non-sketch estimator cannot merge.
	if err := cl.SnapshotMerge(1, data); !errors.As(err, &remote) || !strings.Contains(err.Error(), "does not support merging") {
		t.Fatalf("merge into exact estimator not rejected: %v", err)
	}
	// A shared statement points at its owner.
	if err := cl.SnapshotMerge(2, data); !errors.As(err, &remote) || !strings.Contains(err.Error(), "shared") {
		t.Fatalf("merge into shared statement not rejected: %v", err)
	}
	// Out-of-range statement.
	if err := cl.SnapshotMerge(99, data); !errors.As(err, &remote) {
		t.Fatalf("merge into missing statement not rejected: %v", err)
	}
	// None of the failures touched the estimator.
	if res, err := cl.Query(0); err != nil || res.Count != src.ImplicationCount() {
		t.Fatalf("failed merges changed the count: %v %v", res.Count, err)
	}
}

func TestServerQueryErrors(t *testing.T) {
	schema := testSchema(t)
	srv := startServer(t, Config{Schema: schema, Engine: testEngine(t, schema, exactBackend())})
	cl := dialClient(t, srv, schema, client.Options{})
	var remote *client.RemoteError
	if _, err := cl.Query(5); !errors.As(err, &remote) || !strings.Contains(err.Error(), "no statement 5") {
		t.Fatalf("out-of-range statement: %v", err)
	}
}

func TestServerGracefulCloseWritesCheckpoint(t *testing.T) {
	schema := testSchema(t)
	ckpt := filepath.Join(t.TempDir(), "srv.ckpt")
	var cond imps.Conditions
	backend := sketchBackend(3, &cond)
	srv := startServer(t, Config{
		Schema:         schema,
		Engine:         testEngine(t, schema, backend),
		CheckpointPath: ckpt,
	})
	cl := dialClient(t, srv, schema, client.Options{})

	tuples := makeTuples(500, 25)
	for i := 0; i < len(tuples); i += 100 {
		if err := cl.IngestBatch(tuples[i : i+100]); err != nil {
			t.Fatal(err)
		}
	}
	// Close without waiting for the worker: every acknowledged batch must be
	// drained into the engine before the final checkpoint.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Read(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Offset != 500 {
		t.Fatalf("checkpoint offset %d, want 500 (acked batches not drained?)", snap.Offset)
	}
	resolve := func(q query.Query, kind string) (query.Backend, error) { return backend, nil }
	restored, err := checkpoint.Restore(snap, schema, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Statements()[0].Count(), srv.Engine().Statements()[0].Count(); got != want {
		t.Fatalf("restored count %v, live count %v", got, want)
	}
}

func TestServerKillSkipsFinalCheckpoint(t *testing.T) {
	schema := testSchema(t)
	ckpt := filepath.Join(t.TempDir(), "srv.ckpt")
	srv := startServer(t, Config{
		Schema:          schema,
		Engine:          testEngine(t, schema, exactBackend()),
		CheckpointPath:  ckpt,
		CheckpointEvery: 100,
	})
	cl := dialClient(t, srv, schema, client.Options{})
	tuples := makeTuples(250, 10)
	// Three batches: the periodic checkpointer fires after the 100- and
	// 200-tuple batches but not after the final 50.
	for _, r := range [][2]int{{0, 100}, {100, 200}, {200, 250}} {
		if err := cl.IngestBatch(tuples[r[0]:r[1]]); err != nil {
			t.Fatal(err)
		}
	}
	waitTuples(t, cl, 250)
	srv.Kill()
	// Only the periodic checkpoint at 200 survives; the 250-tuple state died
	// with the server.
	snap, err := checkpoint.Read(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Offset != 200 {
		t.Fatalf("surviving checkpoint offset %d, want 200", snap.Offset)
	}
}

func TestServerRefusesIngestWhileDraining(t *testing.T) {
	schema := testSchema(t)
	srv := startServer(t, Config{Schema: schema, Engine: testEngine(t, schema, exactBackend())})
	cl := dialClient(t, srv, schema, client.Options{})
	if err := cl.IngestBatch(makeTuples(10, 5)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.IngestBatch(makeTuples(10, 5)); err == nil {
		t.Fatal("ingest after Close succeeded")
	}
}

func TestListenValidation(t *testing.T) {
	schema := testSchema(t)
	eng := testEngine(t, schema, exactBackend())
	if _, err := Listen(Config{Addr: "127.0.0.1:0", Engine: eng}); err == nil {
		t.Error("nil schema accepted")
	}
	if _, err := Listen(Config{Addr: "127.0.0.1:0", Schema: schema}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := Listen(Config{Addr: "127.0.0.1:0", Schema: schema, Engine: eng, QueueDepth: -1}); err == nil {
		t.Error("negative queue depth accepted")
	}
	if _, err := Listen(Config{Addr: "127.0.0.1:0", Schema: schema, Engine: eng, Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := Listen(Config{Addr: "127.0.0.1:0", Schema: schema, Engine: eng, MaxBatchTuples: -1}); err == nil {
		t.Error("negative max batch tuples accepted")
	}
	if _, err := Listen(Config{Addr: "127.0.0.1:0", Schema: schema, Engine: eng, CheckpointEvery: -1}); err == nil {
		t.Error("negative checkpoint interval accepted")
	}
	if _, err := Listen(Config{Addr: "127.0.0.1:0", Schema: schema, Engine: eng, RetryAfter: -1}); err == nil {
		t.Error("negative retry-after accepted")
	}
	if _, err := Listen(Config{Addr: "127.0.0.1:0", Schema: schema, Engine: eng, TraceSpans: -1}); err == nil {
		t.Error("negative trace spans accepted")
	}
	if _, err := Listen(Config{Addr: "127.0.0.1:99999", Schema: schema, Engine: eng}); err == nil {
		t.Error("unusable listen address accepted")
	}
}

func TestServerDropsMalformedFrames(t *testing.T) {
	schema := testSchema(t)
	srv := startServer(t, Config{Schema: schema, Engine: testEngine(t, schema, exactBackend())})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("\xff\xff\xff\xffgarbage")); err != nil {
		t.Fatal(err)
	}
	// The server must drop the connection, not hang or crash.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("server answered a malformed frame")
	}
	// And keep serving new connections.
	cl := dialClient(t, srv, schema, client.Options{})
	if _, err := cl.Stats(); err != nil {
		t.Fatal(err)
	}
}

// TestConnGoroutinesExit checks that a connection's goroutines — the
// client's reader and writer, the server's reader and writer — all exit:
// 50 clients dial, pipeline 8 batches and close, 10 more are cut
// server-side with their batches in flight, and the goroutine count comes
// back to where it started.
func TestConnGoroutinesExit(t *testing.T) {
	schema := testSchema(t)
	srv := startServer(t, Config{Schema: schema, Engine: testEngine(t, schema, exactBackend()), BlockOnFull: true})
	payload, err := client.EncodeBatch(schema, makeTuples(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 60; i++ {
		cl, err := client.Dial(srv.Addr(), schema, client.Options{Conns: 1})
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
			srv.connMu.Lock()
			for c := range srv.conns {
				c.Close()
			}
			srv.connMu.Unlock()
		}
		for _, p := range pend {
			if err := p.Wait(); err != nil && i < 50 {
				t.Fatal(err)
			}
		}
		cl.Close()
	}
	waitGoroutines(t, base)
}

// waitGoroutines polls until at most base goroutines run, dumping every
// stack if they do not settle within 5 s.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, %d before the connections:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}
