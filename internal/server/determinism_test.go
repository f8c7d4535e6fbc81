package server

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"implicate/internal/checkpoint"
	"implicate/internal/client"
	"implicate/internal/core"
	"implicate/internal/exact"
	"implicate/internal/imps"
	"implicate/internal/query"
	"implicate/internal/stream"
)

// determinismEngine registers a mixed statement set spanning both
// concurrency classes: partition-safe statements (sketch and exact counter,
// each at four stripes and at one) spread across pool workers, the
// serialized ones (a windowed sketch and a windowed exact counter) run on
// their home workers, and a NOT IMPLIES alias shares the four-stripe
// estimator (sharing keys on the backend function pointer, so the alias
// registers with the identical closure). Conditions differ per statement so
// none share by accident.
func determinismEngine(t *testing.T, schema *stream.Schema, seed uint64) *query.Engine {
	t.Helper()
	sharded := func(cond imps.Conditions) (imps.Estimator, error) {
		return core.NewShardedSketch(cond, core.Options{Seed: seed}, 4)
	}
	regs := []struct {
		sql     string
		backend query.Backend
	}{
		{`SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B WITH SUPPORT >= 2, MULTIPLICITY <= 2, CONFIDENCE >= 0.8 TOP 1`, sharded},
		{`SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.8 TOP 1`,
			func(cond imps.Conditions) (imps.Estimator, error) { return exact.NewStriped(cond, 4) }},
		{`SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B WITH SUPPORT >= 4, MULTIPLICITY <= 2, CONFIDENCE >= 0.8 TOP 1`,
			func(cond imps.Conditions) (imps.Estimator, error) {
				return core.NewSketch(cond, core.Options{Seed: seed})
			}},
		{`SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B WITH SUPPORT >= 5, MULTIPLICITY <= 2, CONFIDENCE >= 0.8 TOP 1`,
			func(cond imps.Conditions) (imps.Estimator, error) { return exact.NewCounter(cond) }},
		{`SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B WITH SUPPORT >= 6, MULTIPLICITY <= 2, CONFIDENCE >= 0.8 TOP 1 WINDOW 1500 EVERY 500`, windowBackends["nips"]},
		{`SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B WITH SUPPORT >= 7, MULTIPLICITY <= 2, CONFIDENCE >= 0.8 TOP 1 WINDOW 1500 EVERY 500`, windowBackends["exact"]},
		{`SELECT COUNT(DISTINCT A) FROM t WHERE A NOT IMPLIES B WITH SUPPORT >= 2, MULTIPLICITY <= 2, CONFIDENCE >= 0.8 TOP 1`, sharded},
	}
	eng := query.NewEngine(schema)
	for _, r := range regs {
		if _, err := eng.RegisterSQL(r.sql, r.backend); err != nil {
			t.Fatalf("register %q: %v", r.sql, err)
		}
	}
	if !eng.Statements()[len(regs)-1].Shared() {
		t.Fatal("test setup: NOT IMPLIES statement did not share")
	}
	return eng
}

// windowBackends builds the windowed statements' estimators, and resolves
// them on restore by kind.
var windowBackends = map[string]query.Backend{
	"nips": func(cond imps.Conditions) (imps.Estimator, error) {
		return core.NewShardedSketch(cond, core.Options{Seed: 5}, 2)
	},
	"exact": func(cond imps.Conditions) (imps.Estimator, error) { return exact.NewCounter(cond) },
}

func windowResolver(q query.Query, kind string) (query.Backend, error) {
	if b, ok := windowBackends[kind]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("no backend for kind %q", kind)
}

// determinismBatches builds an ordered batch sequence with enough key
// repetition to move fringes, overflow-kill items and hit every service of
// the workload.
func determinismBatches(nBatches, batchSize int) [][]stream.Tuple {
	batches := make([][]stream.Tuple, nBatches)
	n := 0
	for b := range batches {
		ts := make([]stream.Tuple, batchSize)
		for i := range ts {
			ts[i] = stream.Tuple{fmt.Sprintf("s%d", n%97), fmt.Sprintf("d%d", (n*7)%13)}
			n++
		}
		batches[b] = ts
	}
	return batches
}

// serialState runs the batch sequence through a fresh engine serially and
// returns its marshalled state — the reference every pool size must hit.
func serialState(t *testing.T, schema *stream.Schema, seed uint64, batches [][]stream.Tuple) ([]byte, *query.Engine) {
	t.Helper()
	eng := determinismEngine(t, schema, seed)
	for _, ts := range batches {
		eng.ProcessBatch(ts)
	}
	state, err := eng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return state, eng
}

// TestServerPoolDeterminism is the end-to-end form of the pipeline
// invariant: the engine state after ingesting over TCP through pools of
// size {1, 2, 4, 8} is bit-identical to a serial ProcessBatch run. One
// connection issues the batches sequentially, so arrival order is the send
// order.
func TestServerPoolDeterminism(t *testing.T) {
	schema := testSchema(t)
	batches := determinismBatches(12, 400)
	want, serial := serialState(t, schema, 11, batches)

	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv := startServer(t, Config{
				Schema:  schema,
				Engine:  determinismEngine(t, schema, 11),
				Workers: workers,
			})
			cl := dialClient(t, srv, schema, client.Options{Conns: 1})
			total := 0
			for _, ts := range batches {
				if err := cl.IngestBatch(ts); err != nil {
					t.Fatal(err)
				}
				total += len(ts)
			}
			waitTuples(t, cl, int64(total))
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := srv.Engine().MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("served engine state diverged from the serial run")
			}
			for i, st := range srv.Engine().Statements() {
				if got, want := st.Count(), serial.Statements()[i].Count(); got != want {
					t.Errorf("stmt %d: count %v, want %v", i, got, want)
				}
			}
		})
	}
}

// TestServerDrainCheckpointMatchesShadow closes a 4-worker server with
// batches still queued: the graceful drain must apply every acknowledged
// batch through the pool, and the final checkpoint file must be
// byte-identical to a capture of an uncrashed serial shadow engine.
func TestServerDrainCheckpointMatchesShadow(t *testing.T) {
	schema := testSchema(t)
	batches := determinismBatches(10, 500)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "srv.ckpt")

	srv := startServer(t, Config{
		Schema:         schema,
		Engine:         determinismEngine(t, schema, 23),
		Workers:        4,
		CheckpointPath: ckpt,
	})
	cl := dialClient(t, srv, schema, client.Options{Conns: 1})
	total := 0
	for _, ts := range batches {
		if err := cl.IngestBatch(ts); err != nil {
			t.Fatal(err)
		}
		total += len(ts)
	}
	// Close immediately — acknowledged batches may still sit in the ingest
	// queue; the drain must push them through the pool first.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	_, shadow := serialState(t, schema, 23, batches)
	shadowSnap, err := checkpoint.Capture(shadow, int64(total))
	if err != nil {
		t.Fatal(err)
	}
	shadowPath := filepath.Join(dir, "shadow.ckpt")
	if err := checkpoint.Write(shadowPath, shadowSnap); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(shadowPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("drained server checkpoint differs from the uncrashed shadow capture")
	}
}

// TestServerKillRecoverThroughPool crashes a 4-worker server mid-stream and
// recovers from its last periodic checkpoint: restoring and replaying the
// remaining tuples serially must land on the exact serial end state. This
// pins two things — periodic captures fence the pool (the checkpoint is a
// clean batch boundary, never a torn mid-batch state), and the recovered
// offset is trustworthy for replay.
func TestServerKillRecoverThroughPool(t *testing.T) {
	schema := testSchema(t)
	const batchSize = 500
	batches := determinismBatches(5, batchSize) // checkpoints at 1000 and 2000
	want, _ := serialState(t, schema, 31, batches)
	ckpt := filepath.Join(t.TempDir(), "srv.ckpt")

	srv := startServer(t, Config{
		Schema:          schema,
		Engine:          determinismEngine(t, schema, 31),
		Workers:         4,
		CheckpointPath:  ckpt,
		CheckpointEvery: 1000,
	})
	cl := dialClient(t, srv, schema, client.Options{Conns: 1})
	for _, ts := range batches {
		if err := cl.IngestBatch(ts); err != nil {
			t.Fatal(err)
		}
	}
	waitTuples(t, cl, int64(len(batches)*batchSize))
	srv.Kill()

	snap, err := checkpoint.Read(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Offset != 2000 {
		t.Fatalf("surviving checkpoint offset %d, want 2000 (not batch-aligned?)", snap.Offset)
	}
	restored, err := checkpoint.Restore(snap, schema, windowResolver)
	if err != nil {
		t.Fatal(err)
	}
	// Replay everything past the checkpoint offset, as a producer would.
	// Batches are fixed-size and checkpoints batch-aligned, so replay starts
	// at a whole batch.
	for b := int(snap.Offset) / batchSize; b < len(batches); b++ {
		restored.ProcessBatch(batches[b])
	}
	got, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("recover-and-replay state diverged from the serial run")
	}
}

// TestServerBlockOnFullOrdering pins the BlockOnFull contract: with a
// 1-deep queue and a throttled dispatcher, a deeply pipelined producer is
// never busy-refused — the connection reader stalls for queue room instead
// — so per-connection order survives and the engine state stays
// bit-identical to a serial run. (Without BlockOnFull this setup refuses
// batches: acks confirm enqueueing, so the queue fills with already-acked
// batches while the producer keeps pipelining.)
func TestServerBlockOnFullOrdering(t *testing.T) {
	schema := testSchema(t)
	batches := determinismBatches(40, 25)
	want, _ := serialState(t, schema, 23, batches)

	srv := startServer(t, Config{
		Schema:      schema,
		Engine:      determinismEngine(t, schema, 23),
		QueueDepth:  1,
		Workers:     4,
		BlockOnFull: true,
		gate:        func() { time.Sleep(200 * time.Microsecond) },
	})
	cl := dialClient(t, srv, schema, client.Options{Conns: 1})

	// Pipeline every batch before waiting on any ack: the queue is
	// guaranteed to be full (of acked batches) for most arrivals.
	pend := make([]*client.PendingIngest, 0, len(batches))
	for _, ts := range batches {
		enc, err := client.EncodeBatch(schema, ts)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := cl.IngestAsync(enc, int64(len(ts)))
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, pi)
	}
	for _, pi := range pend {
		if err := pi.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	sn := srv.Telemetry().Snapshot()
	if sn.BatchesRejected != 0 {
		t.Fatalf("%d batches busy-refused under BlockOnFull", sn.BatchesRejected)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Engine().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("engine state diverged from the serial run under blocking backpressure")
	}
}

// TestStateRPCsDuringIngest: Merge, Snapshot and Readout pulls of NIPS
// statements race pipelined ingest, whose workers apply the sketches'
// buckets without the statement lock, so only the sketches' own stripe
// locks keep the two apart (run with -race). Statement 0's sketch has four
// stripes, statement 2's one. Merging an empty same-seed sketch changes no
// state, so the final engine must be the serial run's, bit for bit.
func TestStateRPCsDuringIngest(t *testing.T) {
	schema := testSchema(t)
	batches := determinismBatches(40, 400)
	want, _ := serialState(t, schema, 11, batches)
	srv := startServer(t, Config{Schema: schema, Engine: determinismEngine(t, schema, 11), Workers: 4})
	ingest := dialClient(t, srv, schema, client.Options{Conns: 1})
	reader := dialClient(t, srv, schema, client.Options{})
	boot, err := reader.Boot()
	if err != nil {
		t.Fatal(err)
	}
	empty := map[int][]byte{}
	for _, stmt := range []int{0, 2} {
		cond := srv.Engine().Statements()[stmt].Query().Cond
		if empty[stmt], err = core.MustSketch(cond, core.Options{Seed: 11}).MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	rpcs := make(chan error, 1)
	go func() {
		defer close(rpcs)
		for pulls := 0; ; pulls++ {
			select {
			case <-stop:
				if pulls == 0 {
					rpcs <- errors.New("no state RPC ran during ingest")
				}
				return
			default:
			}
			for stmt, blob := range empty {
				if err := reader.SnapshotMerge(stmt, blob); err != nil {
					rpcs <- err
					return
				}
				if _, err := reader.Snapshot(stmt); err != nil {
					rpcs <- err
					return
				}
				if _, err := reader.ReadoutFenced(stmt, boot); err != nil {
					rpcs <- err
					return
				}
			}
		}
	}()

	var pending []*client.PendingIngest
	total := 0
	for _, ts := range batches {
		payload, err := client.EncodeBatch(schema, ts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ingest.IngestAsync(payload, int64(len(ts)))
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
		total += len(ts)
	}
	for _, p := range pending {
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	waitTuples(t, ingest, int64(total))
	close(stop)
	if err := <-rpcs; err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Engine().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("engine state after state RPCs during ingest diverged from the serial run")
	}
}
