package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"implicate/internal/core"
	"implicate/internal/exact"
	"implicate/internal/imps"
	"implicate/internal/lossy"
	"implicate/internal/query"
	"implicate/internal/wire"
)

// The files under testdata are engine checkpoints written by a build from
// before the registry named an exact counter "exact" at every stripe count
// and retired the §5 baselines, over genTuples(0, 300) with testSchema:
//
//   - nips.ckpt, exact.ckpt: vectorSketch (one stripe) and an exact counter
//     (one stripe), each serving vectorSQL's IMPLIES statement and its NOT
//     IMPLIES alias;
//   - sharded.ckpt, exact-striped.ckpt: the same at two and at four stripes,
//     which that build wrote under the kinds "sharded" and "exact-striped";
//   - sharded-window.ckpt, exact-striped-window.ckpt: the IMPLIES statement
//     alone, with vectorWindow;
//   - ilc.ckpt, ds.ckpt: the exact counter's IMPLIES statement on ILC
//     (relative support 0.01, ε 0.005) and on Distinct Sampling (256
//     entries, bound 8, seed 21).
const (
	vectorTuples = 300
	vectorWindow = ` WINDOW 200 EVERY 100`
)

var vectorSQL = map[string][2]string{
	"nips": {
		`SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination WITH SUPPORT >= 2, MULTIPLICITY <= 2`,
		`SELECT COUNT(DISTINCT Source) FROM t WHERE Source NOT IMPLIES Destination WITH SUPPORT >= 2, MULTIPLICITY <= 2`,
	},
	"exact": {
		`SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.5 TOP 1`,
		`SELECT COUNT(DISTINCT Source) FROM t WHERE Source NOT IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.5 TOP 1`,
	},
}

// vectorBackend builds a vector's estimators at the given stripe count: a
// sketch of eight bitmaps, seed 5, or an exact counter.
func vectorBackend(backend string, stripes int) query.Backend {
	if backend == "nips" {
		return func(cond imps.Conditions) (imps.Estimator, error) {
			return core.NewShardedSketch(cond, core.Options{Bitmaps: 8, Seed: 5}, stripes)
		}
	}
	return func(cond imps.Conditions) (imps.Estimator, error) { return exact.NewStriped(cond, stripes) }
}

// vectorResolver builds a window's fresh slots at one stripe.
func vectorResolver(q query.Query, kind string) (query.Backend, error) {
	if kind != "nips" && kind != "exact" {
		return nil, fmt.Errorf("no backend for kind %q", kind)
	}
	return vectorBackend(kind, 1), nil
}

// vectorEngine builds the engine a vector was captured from, on today's
// backends at the given stripe count, fed the vector's stream.
func vectorEngine(t *testing.T, backend string, stripes int, windowed bool) *query.Engine {
	t.Helper()
	pair := vectorSQL[backend]
	sqls := pair[:]
	if windowed {
		sqls = []string{sqls[0] + vectorWindow}
	}
	eng := query.NewEngine(testSchema())
	for _, sql := range sqls {
		if _, err := eng.RegisterSQL(sql, vectorBackend(backend, stripes)); err != nil {
			t.Fatal(err)
		}
	}
	eng.ProcessBatch(genTuples(0, vectorTuples))
	return eng
}

func readVector(t *testing.T, name string) Snapshot {
	t.Helper()
	snap, err := Read(filepath.Join("testdata", name+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Offset != vectorTuples {
		t.Fatalf("%s: offset %d, want %d", name, snap.Offset, vectorTuples)
	}
	return snap
}

// TestOneStripeVectorsUnchanged: a one-stripe sketch or exact counter
// engine fed the vector stream today writes the checkpoint file an earlier
// build wrote, byte for byte.
func TestOneStripeVectorsUnchanged(t *testing.T) {
	for _, kind := range []string{"nips", "exact"} {
		want, err := os.ReadFile(filepath.Join("testdata", kind+".ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := Capture(vectorEngine(t, kind, 1, false), vectorTuples)
		if err != nil {
			t.Fatal(err)
		}
		if got := Encode(snap); !bytes.Equal(got, want) {
			t.Errorf("%s: today's checkpoint (%d bytes) differs from the committed one (%d bytes)", kind, len(got), len(want))
		}
	}
}

// TestStripedVectors: checkpoints an earlier build wrote at several
// stripes restore to engines that answer like one built today, keep
// answering alike as the stream continues, and re-capture to what that
// engine captures: the vector itself for a sketch, which keeps its
// "sharded" kind, and for an exact counter the vector with its
// "exact-striped" frames now named "exact".
func TestStripedVectors(t *testing.T) {
	for _, c := range []struct {
		name, old, kind, backend string
		stripes                  int
		windowed                 bool
	}{
		{"sharded", "sharded", "sharded", "nips", 2, false},
		{"sharded-window", "sharded", "sharded", "nips", 2, true},
		{"exact-striped", "exact-striped", "exact", "exact", 4, false},
		{"exact-striped-window", "exact-striped", "exact", "exact", 4, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			snap := readVector(t, c.name)
			if !bytes.Contains(snap.Engine, []byte(c.old)) {
				t.Fatalf("vector holds no %q frame", c.old)
			}
			ref := vectorEngine(t, c.backend, c.stripes, c.windowed)
			want, err := Capture(ref, vectorTuples)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(snap, testSchema(), vectorResolver)
			if err != nil {
				t.Fatal(err)
			}
			again, err := Capture(restored, snap.Offset)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Engine, want.Engine) {
				t.Fatal("re-captured engine differs from today's capture of the vector's engine")
			}
			for step := 0; step < 2; step++ {
				if restored.Tuples() != ref.Tuples() {
					t.Fatalf("restored engine at %d tuples, reference at %d", restored.Tuples(), ref.Tuples())
				}
				for i, st := range ref.Statements() {
					got := restored.Statements()[i]
					if got.Count() != st.Count() {
						t.Fatalf("statement %d: restored engine reads %g, today's %g", i, got.Count(), st.Count())
					}
				}
				next := genTuples(vectorTuples*(step+1), vectorTuples)
				restored.ProcessBatch(next)
				ref.ProcessBatch(next)
			}
		})
	}
}

// TestBaselineVectorsRefused: a checkpoint holding an ILC or a Distinct
// Sampling statement is refused with an error that names the kind and
// says the baseline is library-only, not reported as corrupt; and an
// engine serving a baseline cannot be captured.
func TestBaselineVectorsRefused(t *testing.T) {
	for _, kind := range []string{"ilc", "ds"} {
		_, err := Restore(readVector(t, kind), testSchema(), vectorResolver)
		if err == nil || errors.Is(err, wire.ErrCorrupt) ||
			!strings.Contains(err.Error(), fmt.Sprintf("%q", kind)) || !strings.Contains(err.Error(), "library-only") {
			t.Errorf("%s: restore error %v; want a library-only refusal naming the kind", kind, err)
		}
	}
	eng := query.NewEngine(testSchema())
	if _, err := eng.RegisterSQL(vectorSQL["exact"][0], func(cond imps.Conditions) (imps.Estimator, error) {
		return lossy.NewILC(cond, 0.01, 0.005)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Capture(eng, 0); err == nil || !strings.Contains(err.Error(), "statement 0") {
		t.Fatalf("capturing an ILC engine: %v; want an error naming the statement", err)
	}
}
