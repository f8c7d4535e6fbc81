package query

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"implicate/internal/core"
	"implicate/internal/imps"
	"implicate/internal/stream"
)

func genTuples(start, n int) []stream.Tuple {
	out := make([]stream.Tuple, 0, n)
	svcs := [...]string{"WWW", "FTP", "P2P"}
	times := [...]string{"Morning", "Noon", "Night"}
	for i := start; i < start+n; i++ {
		src := "S" + strconv.Itoa(i%37)
		dst := "D" + strconv.Itoa((i*3)%11)
		if i%37 < 12 {
			dst = "D-solo"
		}
		out = append(out, stream.Tuple{src, dst, svcs[i%3], times[(i/3)%3]})
	}
	return out
}

var nipsBackend = sketchFactory(core.Options{Bitmaps: 64})

func shardedBackend(cond imps.Conditions) (imps.Estimator, error) {
	return core.NewShardedSketch(cond, core.Options{Bitmaps: 64}, 2)
}

// checkpointEngine builds an engine exercising every statement shape the
// snapshot must carry: an exact leaf, a shared alias of it, a sketch leaf,
// a sliding-window sketch vector and a sharded sketch.
func checkpointEngine(t *testing.T) (*Engine, []*Statement) {
	t.Helper()
	e := NewEngine(mustSchema(t))
	var stmts []*Statement
	for _, reg := range []struct {
		sql     string
		backend Backend
	}{
		{`SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.5 TOP 1`, exactBackend},
		{`SELECT COUNT(DISTINCT Source) FROM t WHERE Source NOT IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.5 TOP 1`, exactBackend},
		{`SELECT COUNT(DISTINCT Destination) FROM t WHERE Destination IMPLIES Source WITH SUPPORT >= 2, MULTIPLICITY <= 3`, nipsBackend},
		{`SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination WITH SUPPORT >= 2, MULTIPLICITY <= 2 WINDOW 600 EVERY 60`, nipsBackend},
		{`SELECT COUNT(DISTINCT Service) FROM t WHERE Service IMPLIES Source WITH MULTIPLICITY <= 40, CONFIDENCE >= 0.1 TOP 1`, shardedBackend},
	} {
		st, err := e.RegisterSQL(reg.sql, reg.backend)
		if err != nil {
			t.Fatalf("register %q: %v", reg.sql, err)
		}
		stmts = append(stmts, st)
	}
	if !stmts[1].Shared() {
		t.Fatal("NOT IMPLIES variant did not share the exact counter")
	}
	return e, stmts
}

func testResolver(q Query, kind string) (Backend, error) {
	if kind != "nips" {
		return nil, fmt.Errorf("no backend for kind %q", kind)
	}
	return nipsBackend, nil
}

func TestEngineSnapshotRoundTrip(t *testing.T) {
	e, stmts := checkpointEngine(t)
	e.ProcessBatch(genTuples(0, 2000))

	blob, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	re, err := UnmarshalEngine(blob, mustSchema(t), testResolver)
	if err != nil {
		t.Fatal(err)
	}
	rstmts := re.Statements()
	if len(rstmts) != len(stmts) {
		t.Fatalf("restored %d statements, want %d", len(rstmts), len(stmts))
	}
	if re.Tuples() != e.Tuples() {
		t.Fatalf("restored tuple count %d, want %d", re.Tuples(), e.Tuples())
	}
	if !rstmts[1].Shared() || rstmts[1].Estimator() != rstmts[0].Estimator() {
		t.Fatal("restored engine lost the estimator-sharing topology")
	}
	for i := range stmts {
		if got, want := rstmts[i].Query().String(), stmts[i].Query().String(); got != want {
			t.Fatalf("statement %d query: got %q, want %q", i, got, want)
		}
		if got, want := rstmts[i].Query().Mode, stmts[i].Query().Mode; got != want {
			t.Fatalf("statement %d mode: got %v, want %v", i, got, want)
		}
		if got, want := rstmts[i].Count(), stmts[i].Count(); got != want {
			t.Fatalf("statement %d count after restore: got %g, want %g", i, got, want)
		}
	}

	// The restored engine must continue the stream exactly: the test
	// backends use fixed seeds, so even the sketch counts are bit-identical.
	more := genTuples(2000, 1500)
	e.ProcessBatch(more)
	re.ProcessBatch(more)
	if re.Tuples() != e.Tuples() {
		t.Fatalf("tuple counts diverged after resume: %d vs %d", re.Tuples(), e.Tuples())
	}
	for i := range stmts {
		if got, want := rstmts[i].Count(), stmts[i].Count(); got != want {
			t.Fatalf("statement %d count after resumed streaming: got %g, want %g", i, got, want)
		}
	}
}

// TestEngineSnapshotRestoresAcrossShardCounts: a sharded sketch's shard
// count is a lock layout, not state. An engine whose windowed statement was
// checkpointed with 4-shard sketches restores through a resolver that builds
// 2-shard ones and continues bit-identically to the uncrashed run.
func TestEngineSnapshotRestoresAcrossShardCounts(t *testing.T) {
	sharded := func(n int) Backend {
		return func(cond imps.Conditions) (imps.Estimator, error) {
			return core.NewShardedSketch(cond, core.Options{Bitmaps: 64, Seed: 9}, n)
		}
	}
	const sql = `SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination WITH SUPPORT >= 2, MULTIPLICITY <= 2 WINDOW 600 EVERY 60`
	e := NewEngine(mustSchema(t))
	st, err := e.RegisterSQL(sql, sharded(4))
	if err != nil {
		t.Fatal(err)
	}
	e.ProcessBatch(genTuples(0, 2000))
	blob, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(q Query, kind string) (Backend, error) {
		if kind != "sharded" {
			return nil, fmt.Errorf("no backend for kind %q", kind)
		}
		return sharded(2), nil
	}
	re, err := UnmarshalEngine(blob, mustSchema(t), resolve)
	if err != nil {
		t.Fatalf("restore at another shard count refused: %v", err)
	}

	// Long enough to retire every restored slot and open new 2-shard ones.
	more := genTuples(2000, 3000)
	e.ProcessBatch(more)
	re.ProcessBatch(more)
	if got, want := re.Statements()[0].Count(), st.Count(); got != want {
		t.Fatalf("count after resumed streaming: got %g, want %g", got, want)
	}
	want, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed engine state differs from the uncrashed run")
	}
}

func TestEngineSnapshotRejectsTruncation(t *testing.T) {
	e, _ := checkpointEngine(t)
	e.ProcessBatch(genTuples(0, 700))
	blob, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	schema := mustSchema(t)
	// Every short prefix, then a sample of the long ones (the full sweep is
	// quadratic in the snapshot size), always including len-1.
	for n := 0; n < len(blob); n++ {
		if n > 512 && n%13 != 0 && n != len(blob)-1 {
			continue
		}
		if _, err := UnmarshalEngine(blob[:n], schema, testResolver); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(blob))
		}
	}
}

func TestEngineSnapshotRejectsSchemaMismatch(t *testing.T) {
	e, _ := checkpointEngine(t)
	blob, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	other := stream.MustSchema("Source", "Destination", "Service", "Hour")
	if _, err := UnmarshalEngine(blob, other, testResolver); err == nil {
		t.Fatal("snapshot restored against a schema it was not captured under")
	}
}

func TestEngineSnapshotWindowedNeedsResolver(t *testing.T) {
	e, _ := checkpointEngine(t)
	blob, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalEngine(blob, mustSchema(t), nil); err == nil {
		t.Fatal("windowed snapshot restored without a backend resolver")
	}
}

func TestEngineSnapshotRejectsMisconfiguredResolver(t *testing.T) {
	e, _ := checkpointEngine(t)
	blob, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wrong := func(q Query, kind string) (Backend, error) {
		// Differently configured sketches must not be mixed into a window's
		// slot vector.
		return sketchFactory(core.Options{Bitmaps: 128}), nil
	}
	if _, err := UnmarshalEngine(blob, mustSchema(t), wrong); err == nil {
		t.Fatal("snapshot restored with a resolver whose configuration differs from the checkpointed slots")
	}
}
