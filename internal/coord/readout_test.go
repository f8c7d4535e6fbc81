package coord

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"implicate/internal/core"
	"implicate/internal/gen"
	"implicate/internal/query"
	"implicate/internal/stream"
)

// datasetOneFleet starts a coordinator over three leaves serving sql (which
// may name the conditions with %s) and feeds it and a one-node engine
// Dataset One, returning the flushed coordinator and the one-node engine.
func datasetOneFleet(t *testing.T, fl *fleet, sql []string) (*Coordinator, *query.Engine) {
	t.Helper()
	d := gen.MustDatasetOne(gen.DatasetOneConfig{CardA: 3000, Count: 1000, C: 2, Support: 50, Seed: 3})
	c := d.Conditions
	with := fmt.Sprintf("WITH SUPPORT >= %d, MULTIPLICITY <= %d, CONFIDENCE >= %g TOP %d", c.MinSupport, c.MaxMultiplicity, c.MinTopConfidence, c.TopC)
	for _, q := range sql {
		fl.sql = append(fl.sql, fmt.Sprintf(q, with))
	}
	t.Cleanup(fl.closeAll)
	co := startCoordinator(t, fl, 3, "leaf")
	one, err := fl.engine()
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]stream.Tuple, len(d.Pairs))
	for i, p := range d.Pairs {
		tuples[i] = stream.Tuple{fmt.Sprintf("a%d", p.A), fmt.Sprintf("b%d", p.B)}
	}
	const chunk = 1000
	for off := 0; off < len(tuples); off += chunk {
		batch := tuples[off:min(off+chunk, len(tuples))]
		if err := co.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		one.ProcessBatch(batch)
	}
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}
	return co, one
}

// TestFleetQueriesSharedEstimators: statements that read one predicate in
// different modes share one sketch on every leaf, and the fleet answers
// each exactly as one node does. A snapshot pull refuses a statement
// reading a shared estimator, so before readouts the fleet could answer
// only the first of them.
func TestFleetQueriesSharedEstimators(t *testing.T) {
	fl := newFleet(t, fleetSchema(t))
	co, one := datasetOneFleet(t, fl, []string{
		"SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B %s",
		"SELECT COUNT(DISTINCT A) FROM t WHERE A NOT IMPLIES B %s",
		"SELECT AVG(MULTIPLICITY(A)) FROM t WHERE A IMPLIES B %s",
	})
	tuples := one.Tuples()
	for _, name := range leafNames(3) {
		for stmt, st := range fl.servers[name].Engine().Statements() {
			if st.Shared() != (stmt > 0) {
				t.Fatalf("leaf %s statement %d: shared %t; the test needs statements 1 and 2 to alias statement 0", name, stmt, st.Shared())
			}
		}
	}
	for stmt := range fl.sql {
		q, err := co.Query(stmt)
		if err != nil {
			t.Fatalf("stmt %d: %v", stmt, err)
		}
		want := one.Statements()[stmt].Count()
		if math.Float64bits(q.Count) != math.Float64bits(want) || q.Tuples != tuples {
			t.Errorf("stmt %d: fleet %v over %d tuples, one node %v over %d", stmt, q.Count, q.Tuples, want, tuples)
		}
		if want == 0 {
			t.Errorf("stmt %d: one node reads 0; the stream must exercise every mode", stmt)
		}
	}
}

// TestFleetOverStripedLeaves: leaves whose sketches have four lock stripes
// answer every pull a fleet makes of them — the route pull, Readout and
// Snapshot — so the coordinator answers every read mode, its readouts and
// its merged snapshots bit for bit like one same-seed striped sketch fed
// the same tuples.
func TestFleetOverStripedLeaves(t *testing.T) {
	fl := newFleet(t, fleetSchema(t))
	fl.shards = 4
	co, one := datasetOneFleet(t, fl, []string{
		"SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B %s",
		"SELECT COUNT(DISTINCT A) FROM t WHERE A NOT IMPLIES B %s",
		"SELECT AVG(MULTIPLICITY(A)) FROM t WHERE A IMPLIES B %s",
		"SELECT COUNT(DISTINCT A) FROM t%.0s", // a plain distinct count takes no conditions
	})
	tuples := one.Tuples()
	for stmt, st := range one.Statements() {
		q, err := co.Query(stmt)
		if err != nil {
			t.Fatalf("stmt %d: %v", stmt, err)
		}
		if want := st.Count(); math.Float64bits(q.Count) != math.Float64bits(want) || q.Tuples != tuples || want == 0 {
			t.Errorf("stmt %d: fleet %v over %d tuples, one sketch %v over %d", stmt, q.Count, q.Tuples, want, tuples)
		}
		ref := st.Estimator().(*core.Sketch)
		ro, err := co.Readout(stmt)
		if err != nil {
			t.Fatalf("stmt %d readout: %v", stmt, err)
		}
		if want := ref.AppendReadout(nil); !bytes.Equal(ro.Records, want) || ro.Tuples != tuples {
			t.Errorf("stmt %d: fleet readout differs from one sketch's (%d vs %d bytes)", stmt, len(ro.Records), len(want))
		}
		if st.Shared() {
			continue // a snapshot pull refuses an alias; its owner's is checked
		}
		snap, err := co.Snapshot(stmt)
		if err != nil {
			t.Fatalf("stmt %d snapshot: %v", stmt, err)
		}
		want, err := ref.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap.Sketch, want) || snap.Tuples != tuples || snap.Kind != "sharded" {
			t.Errorf("stmt %d: merged snapshot (%d bytes, kind %q) differs from one sketch's (%d bytes)", stmt, len(snap.Sketch), snap.Kind, len(want))
		}
	}
}

// TestFleetQueryOverlapMerges: a statement whose A-projection is not
// statement 0's is spread over every leaf's bitmaps, so its readouts
// overlap and the query answers from the merged state — exactly what the
// merged snapshot reads — and the coordinator's own readout is the merged
// snapshot's.
func TestFleetQueryOverlapMerges(t *testing.T) {
	fl := newFleet(t, fleetSchema(t))
	co, one := datasetOneFleet(t, fl, []string{
		"SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B %s",
		"SELECT COUNT(DISTINCT B) FROM t WHERE B IMPLIES A %s",
	})
	tuples := one.Tuples()
	if _, _, err := co.readout(0); err != nil {
		t.Fatalf("statement 0 readouts: %v", err)
	}
	if _, _, err := co.readout(1); !errors.Is(err, core.ErrOverlap) {
		t.Fatalf("statement 1 readouts: err %v, want core.ErrOverlap", err)
	}
	q, err := co.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := co.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := core.UnmarshalSketch(snap.Sketch)
	if err != nil {
		t.Fatal(err)
	}
	if want := merged.ImplicationCount(); math.Float64bits(q.Count) != math.Float64bits(want) || q.Tuples != tuples {
		t.Errorf("fleet %v over %d tuples, merged snapshot %v over %d", q.Count, q.Tuples, want, tuples)
	}
	ro, err := co.Readout(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := merged.AppendReadout(nil); !bytes.Equal(ro.Records, want) || ro.Bitmaps != uint32(merged.Options().Bitmaps) || ro.Tuples != tuples {
		t.Errorf("fleet readout of %d bitmaps, %d record bytes over %d tuples differs from the merged snapshot's (%d bytes)",
			ro.Bitmaps, len(ro.Records), ro.Tuples, len(want))
	}
}

// TestQueryAllocs pins the fleet query's allocations, counted process-wide
// with the three in-process leaves' included: a readout round trip per
// leaf and one fold, no sketch decoded, merged or compiled.
func TestQueryAllocs(t *testing.T) {
	fl := newFleet(t, fleetSchema(t))
	fl.probeEvery = time.Hour // probes would allocate during the count
	t.Cleanup(fl.closeAll)
	co := startCoordinator(t, fl, 3, "leaf")
	if err := co.Ingest(fleetTuples(5000)); err != nil {
		t.Fatal(err)
	}
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}
	query := func() {
		if _, err := co.Query(0); err != nil {
			t.Fatal(err)
		}
	}
	query() // warm the connections and buffers
	n := testing.AllocsPerRun(50, query)
	t.Logf("Query: %.0f allocations", n)
	if n > 64 {
		t.Errorf("Query allocates %.0f objects, want <= 64", n)
	}
}
