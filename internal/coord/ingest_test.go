package coord

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"implicate/internal/client"
	"implicate/internal/core"
	"implicate/internal/proto"
	"implicate/internal/raceflag"
	"implicate/internal/stream"
	"implicate/internal/xhash"
)

// offlineCoordinator builds a coordinator with no network behind it: the
// real route table — over the bitmaps of a fleetSeed sketch, what a fleet
// of f.backend leaves reports — and staging state, leaves that journal but
// have no feeder. Everything up to and including the journal runs as in
// production, which is all the ingest path's byte-level tests need; what is
// journaled simply stays pending, so a test may journal at most
// maxPendingBatches entries per leaf before Ingest blocks.
func offlineCoordinator(t testing.TB, schema *stream.Schema, leaves, flush int) *Coordinator {
	t.Helper()
	cfg := Config{Schema: schema, Statements: fleetSQL, FlushTuples: flush}
	names := make([]string, leaves)
	for i := range names {
		names[i] = fmt.Sprintf("leaf%d", i)
		cfg.Leaves = append(cfg.Leaves, LeafSpec{Name: names[i], Addr: "offline"})
	}
	co := &Coordinator{cfg: cfg.withDefaults(), stop: make(chan struct{})}
	rt, err := newRouteTable(schema, []string{"A"}, routeSketch(core.DefaultBitmaps), names)
	if err != nil {
		t.Fatal(err)
	}
	co.rt = rt
	co.initStaging()
	for i, name := range names {
		lf := &leaf{co: co, name: name, idx: i}
		lf.cond = sync.NewCond(&lf.mu)
		co.leaves = append(co.leaves, lf)
	}
	t.Cleanup(func() { co.Close() })
	return co
}

// journalStaged journals every partly filled staging buffer — the first
// half of Flush, without the drain an offline leaf cannot answer.
func journalStaged(t testing.TB, co *Coordinator) {
	t.Helper()
	co.mu.Lock()
	defer co.mu.Unlock()
	for idx := range co.stage {
		if err := co.journalLocked(idx); err != nil {
			t.Fatal(err)
		}
	}
}

// journalPayloads returns every leaf's journal entry payloads, in order.
func journalPayloads(co *Coordinator) [][][]byte {
	out := make([][][]byte, len(co.leaves))
	for i, lf := range co.leaves {
		lf.mu.Lock()
		for _, e := range lf.journal {
			out[i] = append(out[i], e.payload)
		}
		lf.mu.Unlock()
	}
	return out
}

// ingestFrame drives the front-end's ingest handler with one wire batch.
func ingestFrame(co *Coordinator, payload []byte) proto.Frame {
	return (&Frontend{co: co}).handleIngest(proto.Frame{Type: proto.TIngest, ID: 1, Payload: payload})
}

func mustEncode(t testing.TB, schema *stream.Schema, tuples []stream.Tuple) []byte {
	t.Helper()
	payload, err := client.EncodeBatch(schema, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestJournalBytesMatchCodec is the raw-slice router's leash: for one fixed
// stream through a 3-leaf coordinator, whichever way it enters — decoded
// tuples through Ingest, or wire batches of 1, 32 and 1000 tuples through
// the front-end — every leaf journals the same entries, each one exactly
// client.EncodeBatch of the tuples routed there in stream order, FlushTuples
// at a time, in a buffer with no slack.
func TestJournalBytesMatchCodec(t *testing.T) {
	schema := fleetSchema(t)
	const leaves, flush = 3, 100
	tuples := fleetTuples(5000)
	tuples[17] = stream.Tuple{"", ""}                                                     // empty values
	tuples[18] = stream.Tuple{string(bytes.Repeat([]byte("k"), int(stream.KeySep))), "d"} // length prefix == KeySep
	tuples[19] = stream.Tuple{string(bytes.Repeat([]byte("w"), 200)), "d"}                // two-byte length prefix

	// The oracle routes with the documented function, not the coordinator's
	// code: the leaves' seeded A-hash of the A value, masked to the bitmap
	// count, through the assignment table.
	ref := offlineCoordinator(t, schema, leaves, flush)
	ahash := xhash.New(fleetSeed)
	var want [leaves][]stream.Tuple
	for _, tu := range tuples {
		bm := int(ahash.SumBytes([]byte(tu[0])) & uint64(len(ref.rt.owner)-1))
		want[ref.rt.owner[bm]] = append(want[ref.rt.owner[bm]], tu)
	}
	var wantPayloads [leaves][][]byte
	for i, ts := range want {
		if len(ts) == 0 {
			t.Fatalf("leaf %d is routed nothing; the stream does not exercise it", i)
		}
		for off := 0; off < len(ts); off += flush {
			wantPayloads[i] = append(wantPayloads[i], mustEncode(t, schema, ts[off:min(off+flush, len(ts))]))
		}
	}

	entrances := map[string]func(co *Coordinator){
		"Ingest": func(co *Coordinator) {
			for off := 0; off < len(tuples); off += 250 {
				if err := co.Ingest(tuples[off : off+250]); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for _, size := range []int{1, 32, 1000} {
		entrances[fmt.Sprintf("wire/%d", size)] = func(co *Coordinator) {
			for off := 0; off < len(tuples); off += size {
				end := min(off+size, len(tuples))
				resp := ingestFrame(co, mustEncode(t, schema, tuples[off:end]))
				if resp.Type != proto.TOK {
					msg, _ := proto.DecodeError(resp.Payload)
					t.Fatalf("batch at %d refused: %s", off, msg)
				}
				if ack, err := proto.DecodeIngestAck(resp.Payload); err != nil || ack.Tuples != int64(end-off) {
					t.Fatalf("batch at %d: ack %+v err %v, want %d tuples", off, ack, err, end-off)
				}
			}
		}
	}
	for name, enter := range entrances {
		t.Run(name, func(t *testing.T) {
			co := offlineCoordinator(t, schema, leaves, flush)
			enter(co)
			journalStaged(t, co)
			for i, got := range journalPayloads(co) {
				if len(got) != len(wantPayloads[i]) {
					t.Fatalf("leaf %d: %d journal entries, want %d", i, len(got), len(wantPayloads[i]))
				}
				for j, payload := range got {
					if !bytes.Equal(payload, wantPayloads[i][j]) {
						t.Fatalf("leaf %d entry %d differs from EncodeBatch of the tuples routed there\n got %x\nwant %x", i, j, payload, wantPayloads[i][j])
					}
					if cap(payload) > len(payload)+len(payload)/8 {
						t.Errorf("leaf %d entry %d: %d bytes retained in a %d-byte buffer", i, j, len(payload), cap(payload))
					}
				}
			}
			if got := co.CoordStats().TuplesIngested; got != int64(len(tuples)) {
				t.Errorf("coordinator counted %d tuples, want %d", got, len(tuples))
			}
		})
	}
}

// poisonPayloads are wire batches a coordinator must refuse whole: each
// starts with good records.
func poisonPayloads(t *testing.T, schema *stream.Schema) map[string][]byte {
	good := mustEncode(t, schema, fleetTuples(40))
	other, err := stream.NewSchema("A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"key separator in a value": stream.AppendBinaryRecord(append([]byte(nil), good...), stream.Tuple{"a1", "x\x1fy"}),
		"wrong arity":              stream.AppendBinaryRecord(append([]byte(nil), good...), stream.Tuple{"a", "b", "c"}),
		"truncated value":          append(append([]byte(nil), good...), 9, 'x'),
		"over-long length prefix":  append(append([]byte(nil), good...), 0x81, 0x00, 'a', 0x00),
		"another schema":           mustEncode(t, other, []stream.Tuple{{"a", "b", "c"}}),
		"no header":                []byte("IMP"),
	}
}

// TestPoisonBatchRefusedWhole is the regression test for the wedged leaf: a
// batch carrying one tuple the codec cannot encode used to be acknowledged,
// then fail every later Flush and strand everything buffered behind it. Now
// it is refused whole — through Ingest and through the TCP front-end —
// before anything is routed or counted, and the batches after it flow.
func TestPoisonBatchRefusedWhole(t *testing.T) {
	schema := fleetSchema(t)
	fl := newFleet(t, schema)
	t.Cleanup(fl.closeAll)
	co := startCoordinator(t, fl, 3, "leaf")
	fe, err := Serve(co, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })
	cl, err := client.Dial(fe.Addr(), schema, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	serial, err := fl.engine()
	if err != nil {
		t.Fatal(err)
	}

	tuples := fleetTuples(3000)
	var fed int
	good := func(n int, wire bool) {
		t.Helper()
		batch := tuples[fed : fed+n]
		fed += n
		if wire {
			err = cl.IngestBatch(batch)
		} else {
			err = co.Ingest(batch)
		}
		if err != nil {
			t.Fatalf("good batch refused: %v", err)
		}
		serial.ProcessBatch(batch)
	}
	good(450, false)
	good(450, true)

	before, counted := co.Status(), co.CoordStats().TuplesIngested
	for name, bad := range map[string][]stream.Tuple{
		"key separator in a value": {{"a1", "x\x1fy"}},
		"poison behind good":       {{"s1", "d1"}, {"s2", "d2"}, {"a1", "x\x1fy"}},
		"wrong arity":              {{"s1", "d1"}, {"lonely"}},
	} {
		if err := co.Ingest(bad); err == nil {
			t.Fatalf("Ingest acknowledged a batch with %s", name)
		}
	}
	for name, payload := range poisonPayloads(t, schema) {
		err := cl.IngestEncoded(payload, 41)
		var remote *client.RemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("front-end answered a batch with %s with %v, want a TError refusal", name, err)
		}
	}
	after := co.Status()
	for i := range before.Leaves {
		if after.Leaves[i].Journaled != before.Leaves[i].Journaled {
			t.Errorf("leaf %d: journaled %d -> %d across refused batches", i, before.Leaves[i].Journaled, after.Leaves[i].Journaled)
		}
	}
	if got := co.CoordStats().TuplesIngested; got != counted {
		t.Errorf("refused batches were counted: %d -> %d tuples", counted, got)
	}

	good(1050, true)
	good(1050, false)
	if err := co.Flush(); err != nil {
		t.Fatalf("Flush after refused batches: %v", err)
	}
	for stmt := range fleetSQL {
		q, err := cl.Query(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if q.Tuples != int64(fed) {
			t.Errorf("stmt %d: fleet applied %d tuples, want the %d good ones", stmt, q.Tuples, fed)
		}
		if want := serial.Statements()[stmt].Count(); math.Float64bits(q.Count) != math.Float64bits(want) {
			t.Errorf("stmt %d: merged count %v, serial count over the good batches %v", stmt, q.Count, want)
		}
	}
}

// TestPendingJournalBounded stalls one leaf's recovery while a producer
// keeps ingesting: the stalled leaf's pending journal fills to the bound,
// Ingest blocks there instead of buffering the rest of the stream, and once
// the leaf is released the fleet catches up to a state bit-identical to an
// unstalled shadow.
func TestPendingJournalBounded(t *testing.T) {
	schema := fleetSchema(t)
	flMain, flShadow := newFleet(t, schema), newFleet(t, schema)
	t.Cleanup(flMain.closeAll)
	t.Cleanup(flShadow.closeAll)

	const victim = 1
	release := make(chan struct{})
	flMain.stall = func(name string) {
		if name == fmt.Sprintf("leaf%d", victim) {
			<-release
		}
	}
	main := startCoordinator(t, flMain, 2, "leaf")
	shadow := startCoordinator(t, flShadow, 2, "leaf")

	tuples := fleetTuples(40000)
	const chunk = 250
	if err := main.Ingest(tuples[:chunk]); err != nil {
		t.Fatal(err)
	}
	flMain.kill(fmt.Sprintf("leaf%d", victim))

	var batches atomic.Int64
	ingested := make(chan error, 1)
	go func() {
		for off := chunk; off < len(tuples); off += chunk {
			if err := main.Ingest(tuples[off : off+chunk]); err != nil {
				ingested <- err
				return
			}
			batches.Add(1)
		}
		ingested <- nil
	}()

	// While the leaf is stalled: sample its pending journal until the
	// producer has stopped making progress against a full bound.
	flush := int64(main.cfg.FlushTuples)
	deadline := time.Now().Add(30 * time.Second)
	for last, still := int64(-1), 0; still < 5; {
		row := main.FleetTelemetry()[victim]
		if row.PendingTuples > maxPendingBatches*flush+flush {
			t.Fatalf("stalled leaf has %d tuples pending, bound is %d batches of %d", row.PendingTuples, maxPendingBatches, flush)
		}
		if n := batches.Load(); n == last && row.PendingEntries >= maxPendingBatches {
			still++
		} else {
			last, still = n, 0
		}
		if time.Now().After(deadline) {
			t.Fatalf("producer never blocked: %d batches in, %d entries pending", batches.Load(), row.PendingEntries)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := batches.Load(); n >= int64(len(tuples)/chunk-1) {
		t.Fatalf("producer finished all %d batches against a stalled leaf; nothing bounded it", n)
	}

	close(release)
	if err := <-ingested; err != nil {
		t.Fatalf("ingest after release: %v", err)
	}
	if err := main.Flush(); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(tuples); off += chunk {
		if err := shadow.Ingest(tuples[off : off+chunk]); err != nil {
			t.Fatal(err)
		}
	}
	if err := shadow.Flush(); err != nil {
		t.Fatal(err)
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
		if got.Tuples != int64(len(tuples)) || !bytes.Equal(got.Sketch, want.Sketch) {
			t.Errorf("stmt %d: stalled fleet (%d tuples) diverged from the unstalled shadow (%d tuples)", stmt, got.Tuples, want.Tuples)
		}
	}
}

// blockedIngest fills leaf 0's pending journal of an offline coordinator to
// the bound, starts one more Ingest that must block on it, and returns the
// channel that Ingest's result arrives on.
func blockedIngest(t *testing.T, co *Coordinator) <-chan error {
	t.Helper()
	var batch []stream.Tuple // FlushTuples tuples that all route to leaf 0
	for i := 0; len(batch) < co.cfg.FlushTuples; i++ {
		tu := stream.Tuple{fmt.Sprintf("s%d", i), "d"}
		if co.rt.leafOf([]byte(tu[0])) == 0 {
			batch = append(batch, tu)
		}
	}
	for i := 0; i < maxPendingBatches; i++ {
		if err := co.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- co.Ingest(batch) }()
	select {
	case err := <-done:
		t.Fatalf("Ingest past the pending bound returned %v instead of blocking", err)
	case <-time.After(50 * time.Millisecond):
	}
	return done
}

// TestBlockedIngestWakes: the two ways out of a blocked Ingest other than
// the feeder making room — Close, and the leaf turning sticky-fatal, whose
// error Ingest returns.
func TestBlockedIngestWakes(t *testing.T) {
	schema := fleetSchema(t)
	wait := func(t *testing.T, done <-chan error) error {
		t.Helper()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("blocked Ingest never returned")
			return nil
		}
	}
	t.Run("close", func(t *testing.T) {
		co := offlineCoordinator(t, schema, 2, 10)
		done := blockedIngest(t, co)
		co.Close()
		if err := wait(t, done); err == nil {
			t.Error("Ingest reported success on a closed coordinator")
		}
	})
	t.Run("fatal leaf", func(t *testing.T) {
		co := offlineCoordinator(t, schema, 2, 10)
		done := blockedIngest(t, co)
		// What recover does when the leaf's restored offset is off-journal.
		lf := co.leaves[0]
		lf.mu.Lock()
		lf.fatal = &alignmentError{name: lf.name, tuples: 7, maxKnow: lf.journaled}
		lf.cond.Broadcast()
		lf.mu.Unlock()
		var fatal *alignmentError
		if err := wait(t, done); !errors.As(err, &fatal) {
			t.Errorf("Ingest returned %v, want the leaf's alignment error", err)
		}
		for i := 0; ; i++ {
			if key := fmt.Sprintf("s%d", i); co.rt.leafOf([]byte(key)) == 1 {
				if err := co.Ingest([]stream.Tuple{{key, "d"}}); err != nil {
					t.Errorf("a tuple for the healthy leaf was refused: %v", err)
				}
				break
			}
		}
	})
}

// TestFrontendIngestAllocs pins the coordinator side of one 1000-tuple
// ingest frame — validate, route, stage, journal, ack — in the spirit of
// pipeline's TestArenaPathAllocs: the budget is the journal's exact-size
// entry copies (one per FlushTuples routed), the ack payload and amortized
// journal-slice growth; a per-tuple allocation overshoots it a hundredfold.
func TestFrontendIngestAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-detector bookkeeping allocates; the pin only holds on plain builds")
	}
	schema := fleetSchema(t)
	co := offlineCoordinator(t, schema, 3, 1000)
	payload := mustEncode(t, schema, fleetTuples(1000))
	allocs := testing.AllocsPerRun(40, func() {
		if resp := ingestFrame(co, payload); resp.Type != proto.TOK {
			t.Fatal("frame refused")
		}
	})
	if allocs > 8 {
		t.Errorf("front-end ingest of a 1000-tuple frame: %.1f allocs, want <= 8", allocs)
	}
}

// FuzzFrontendIngest feeds arbitrary record regions to the front-end. The
// oracle is the decoded path: DecodeBinaryRecords, the writer's tuple
// check, Ingest(tuples). Either both refuse and the coordinator is
// untouched, or both accept and stage and journal identical bytes.
func FuzzFrontendIngest(f *testing.F) {
	schema, err := stream.NewSchema("A", "B")
	if err != nil {
		f.Fatal(err)
	}
	hdr := stream.BinaryHeader(schema)
	var seed []byte
	for _, tu := range fleetTuples(40) {
		seed = stream.AppendBinaryRecord(seed, tu)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-1])
	f.Add(stream.AppendBinaryRecord(seed[:20:20], stream.Tuple{"a1", "x\x1fy"}))
	f.Add([]byte{0x1f, 0x80})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, recs []byte) {
		// No feeder drains an offline journal, so stay below the pending
		// bound: a record is at least two bytes and FlushTuples is 4, so 400
		// bytes journal at most 50 entries on one leaf.
		if len(recs) > 400 {
			t.Skip()
		}
		wire := offlineCoordinator(t, schema, 3, 4)
		resp := ingestFrame(wire, append(append([]byte(nil), hdr...), recs...))

		tuples, oracleErr := stream.DecodeBinaryRecords(recs, schema.Len(), len(recs)+1)
		for _, tu := range tuples {
			if oracleErr == nil {
				oracleErr = stream.CheckTuple(tu, schema.Len())
			}
		}
		if oracleErr == nil {
			// Decodable, but not what a writer emits (an over-long length
			// prefix): forwarding those bytes would journal a batch the
			// codec never produces.
			var canon []byte
			for _, tu := range tuples {
				canon = stream.AppendBinaryRecord(canon, tu)
			}
			if !bytes.Equal(canon, recs) {
				oracleErr = errors.New("not the canonical encoding of its tuples")
			}
		}
		if oracleErr != nil {
			if resp.Type != proto.TError {
				t.Fatalf("front-end answered %s to a region the codec refuses (%v)", resp.Type, oracleErr)
			}
			for i, st := range wire.stage {
				if st.n != 0 || !bytes.Equal(st.buf, hdr) || len(wire.leaves[i].journal) != 0 {
					t.Fatalf("refused batch changed leaf %d's state", i)
				}
			}
			if n := wire.CoordStats().TuplesIngested; n != 0 {
				t.Fatalf("refused batch counted %d tuples", n)
			}
			return
		}
		if resp.Type != proto.TOK {
			msg, _ := proto.DecodeError(resp.Payload)
			t.Fatalf("front-end refused a region the codec accepts: %s", msg)
		}
		if ack, err := proto.DecodeIngestAck(resp.Payload); err != nil || ack.Tuples != int64(len(tuples)) {
			t.Fatalf("ack %+v err %v, want %d tuples", ack, err, len(tuples))
		}
		decoded := offlineCoordinator(t, schema, 3, 4)
		if err := decoded.Ingest(tuples); err != nil {
			t.Fatal(err)
		}
		journalStaged(t, wire)
		journalStaged(t, decoded)
		got, want := journalPayloads(wire), journalPayloads(decoded)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("leaf %d: %d journal entries, decoded path made %d", i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if !bytes.Equal(got[i][j], want[i][j]) {
					t.Fatalf("leaf %d entry %d: wire path journaled %x, decoded path %x", i, j, got[i][j], want[i][j])
				}
			}
		}
	})
}

// BenchmarkCoordRoute is the coordinator side of one 1000-record wire batch
// on the offline harness — validate, route on the bitmap index, stage,
// journal — with the journal discarded after every batch so nothing blocks.
func BenchmarkCoordRoute(b *testing.B) {
	schema, err := stream.NewSchema("A", "B")
	if err != nil {
		b.Fatal(err)
	}
	co := offlineCoordinator(b, schema, 3, 1000)
	payload := mustEncode(b, schema, fleetTuples(1000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := co.ingestEncoded(payload); err != nil {
			b.Fatal(err)
		}
		for _, lf := range co.leaves {
			lf.mu.Lock()
			lf.journal, lf.nextSend = lf.journal[:0], 0
			lf.mu.Unlock()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*1000), "ns/tuple")
}
