package pipeline

import (
	"bytes"
	"fmt"
	"testing"

	"implicate/internal/core"
	"implicate/internal/imps"
	"implicate/internal/lossy"
	"implicate/internal/query"
	"implicate/internal/stream"
)

// addDirect is the contract's reference: it projects and filters each tuple
// the way the statement's query says and calls the estimator's Add per
// tuple, bypassing Plan and Apply altogether.
func addDirect(t *testing.T, schema *stream.Schema, st *query.Statement, ts []stream.Tuple) {
	t.Helper()
	q := st.Query()
	projA := schema.MustProj(append(append([]string(nil), q.A...), q.GroupBy...)...)
	projB := schema.MustProj(q.B...)
	for _, tup := range ts {
		keep := true
		for _, f := range q.Filters {
			i, _ := schema.Index(f.Attr)
			if (tup[i] == f.Value) == f.Negate {
				keep = false
			}
		}
		if keep {
			st.Estimator().Add(projA.Key(tup), projB.Key(tup))
		}
	}
}

// TestIngestContract is the one-path contract over every backend: per-tuple
// Add, Engine.Process, Engine.ProcessBatch, and the pool at workers {1,2,4}
// × fair dispatch shards {1,2} all leave the engine in the same state —
// identical marshalled bytes, or for the one backend with no binary form
// (Sticky) identical answers to every read. The statements cover a filter,
// a single-attribute projection and a two-attribute one.
func TestIngestContract(t *testing.T) {
	const cond = ` WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.6 TOP 1`
	plain := []string{
		`SELECT COUNT(DISTINCT Source) FROM s WHERE Source IMPLIES Destination` + cond + ` AND Service = 'svc1'`,
		`SELECT COUNT(DISTINCT Source) FROM s WHERE Source IMPLIES Destination` + cond + ` GROUP BY Service`,
	}
	windowed := []string{plain[0] + ` WINDOW 2000 EVERY 500`, plain[1] + ` WINDOW 2000 EVERY 500`}
	sharded := func(shards int) query.Backend {
		return func(cond imps.Conditions) (imps.Estimator, error) {
			return core.NewShardedSketch(cond, core.Options{Seed: 42}, shards)
		}
	}
	named := backends(42)
	cases := []struct {
		name     string
		backend  query.Backend
		sqls     []string
		marshals bool
	}{
		{"sketch", named["nips"], plain, true},
		{"sharded-1", sharded(1), plain, true},
		{"sharded-4", sharded(4), plain, true},
		{"counter", named["exact"], plain, true},
		{"striped", named["exact-striped"], plain, true},
		{"ilc", named["ilc"], plain, true},
		{"sticky", func(cond imps.Conditions) (imps.Estimator, error) {
			return lossy.NewImplicationSticky(cond, 0.02, 0.01, 0.1, 7)
		}, plain, false},
		{"ds", named["ds"], plain, true},
		{"windowed-sketch", named["nips"], windowed, true},
	}
	batches := workload(12, 250)
	schema := testSchema(t)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			newEngine := func() *query.Engine {
				eng := query.NewEngine(schema)
				for _, sql := range c.sqls {
					if _, err := eng.RegisterSQL(sql, c.backend); err != nil {
						t.Fatalf("register %q: %v", sql, err)
					}
				}
				return eng
			}
			state := func(eng *query.Engine) []byte {
				if c.marshals {
					blob, err := eng.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					return blob
				}
				var out []byte
				for _, st := range eng.Statements() {
					est := st.Estimator()
					out = fmt.Appendln(out, eng.Tuples(), est.Tuples(), est.MemEntries(),
						est.ImplicationCount(), est.NonImplicationCount(), est.SupportedDistinct())
				}
				return out
			}

			ref := newEngine()
			for _, ts := range batches {
				for _, st := range ref.Statements() {
					addDirect(t, schema, st, ts)
				}
				ref.AddTuples(int64(len(ts)))
			}
			want := state(ref)

			perTuple := newEngine()
			for _, ts := range batches {
				for _, tup := range ts {
					perTuple.Process(tup)
				}
			}
			if !bytes.Equal(state(perTuple), want) {
				t.Error("Engine.Process diverged from per-tuple Add")
			}

			batched := newEngine()
			for _, ts := range batches {
				batched.ProcessBatch(ts)
			}
			if !bytes.Equal(state(batched), want) {
				t.Error("Engine.ProcessBatch diverged from per-tuple Add")
			}

			for _, workers := range []int{1, 2, 4} {
				for _, shards := range []int{1, 2} {
					eng := newEngine()
					feedFair(t, eng, batches, workers, shards)
					got := state(eng)
					if !bytes.Equal(got, want) {
						t.Errorf("pool workers=%d shards=%d diverged from per-tuple Add", workers, shards)
					}
				}
			}
		})
	}
}
