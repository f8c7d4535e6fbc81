package pipeline

import (
	"bytes"
	"fmt"
	"testing"

	"implicate/internal/imps"
	"implicate/internal/query"
	"implicate/internal/snapshot"
	"implicate/internal/stream"
)

// unhashedAdder hides an estimator's imps.HashedPartitionedAdder contract
// (embedding the interface exposes Estimator's methods only), so the engine
// treats a partition-safe estimator as the serialized class: one partition,
// hashes unused, per-pair Add under the statement lock. The determinism
// suite uses it to prove the generic Apply and the hashed Apply build
// bit-identical state.
type unhashedAdder struct{ imps.Estimator }

// unhashedBackend wraps a backend's estimators in unhashedAdder.
func unhashedBackend(b query.Backend) query.Backend {
	return func(cond imps.Conditions) (imps.Estimator, error) {
		est, err := b(cond)
		return unhashedAdder{est}, err
	}
}

// registerPropSuite registers two non-sharing partition-safe statements —
// a plain one and a filtered one — so per-statement estimator blobs compare
// one-to-one across runs regardless of estimator-sharing heuristics.
func registerPropSuite(t *testing.T, eng *query.Engine, backend query.Backend) {
	t.Helper()
	for _, sql := range []string{
		`SELECT COUNT(DISTINCT Source) FROM s WHERE Source IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.6 TOP 1`,
		`SELECT COUNT(DISTINCT Source) FROM s WHERE Source IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.6 TOP 1 AND Service = 'svc1'`,
	} {
		if _, err := eng.RegisterSQL(sql, backend); err != nil {
			t.Fatalf("register %q: %v", sql, err)
		}
	}
}

// estBlobs marshals each statement's inner estimator (unwrapping
// unhashedAdder), giving a state fingerprint comparable across the wrapped
// and unwrapped variants of one backend.
func estBlobs(t *testing.T, eng *query.Engine) [][]byte {
	t.Helper()
	var blobs [][]byte
	for _, st := range eng.Statements() {
		est := st.Estimator()
		if u, ok := est.(unhashedAdder); ok {
			est = u.Estimator
		}
		blob, err := snapshot.Marshal(est)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	return blobs
}

func blobsEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// runDirect drives batches through Pool.Dispatch from the test goroutine
// and returns the per-statement state blobs.
func runDirect(t *testing.T, backend query.Backend, batches [][]stream.Tuple, workers int) [][]byte {
	t.Helper()
	eng := query.NewEngine(testSchema(t))
	registerPropSuite(t, eng, backend)
	pool, err := New(eng, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range batches {
		pool.Dispatch(pool.Plan(ts))
	}
	pool.Fence()
	blobs := estBlobs(t, eng)
	pool.Close()
	return blobs
}

// feedQueue drives batches through a Queue over a pool of the given
// size, and returns once all are applied.
func feedQueue(t *testing.T, eng *query.Engine, batches [][]stream.Tuple, workers int) {
	t.Helper()
	pool, err := New(eng, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(pool, 8, nil, nil)
	for _, ts := range batches {
		if _, ok := q.Enqueue(pool.Plan(ts)); !ok {
			t.Fatal("queue refused an enqueue")
		}
	}
	q.Close()
	pool.Fence()
	pool.Close()
}

// runQueue feeds the property suite through feedQueue and returns the
// per-statement state blobs.
func runQueue(t *testing.T, backend query.Backend, batches [][]stream.Tuple, workers int) [][]byte {
	t.Helper()
	eng := query.NewEngine(testSchema(t))
	registerPropSuite(t, eng, backend)
	feedQueue(t, eng, batches, workers)
	return estBlobs(t, eng)
}

// TestDispatchDeterminism is the dispatch property test: for every
// partition-safe backend, engine state is bit-identical across
// {Pool.Dispatch, ingest queue} × workers {1,2,4,8} × {hashed, generic}
// Apply, and every combination equals the serial reference.
func TestDispatchDeterminism(t *testing.T) {
	batches := workload(24, 300)
	for _, name := range []string{"sharded", "nips", "exact", "exact-striped"} {
		base := backends(42)[name]
		t.Run(name, func(t *testing.T) {
			var hashedRef [][]byte
			for _, hashed := range []bool{true, false} {
				backend := base
				if !hashed {
					backend = unhashedBackend(base)
				}
				serial := query.NewEngine(testSchema(t))
				registerPropSuite(t, serial, backend)
				for _, ts := range batches {
					serial.ProcessBatch(ts)
				}
				want := estBlobs(t, serial)
				if hashed {
					hashedRef = want
				} else if !blobsEqual(want, hashedRef) {
					// The two serial references must agree before the
					// parallel comparisons mean anything.
					t.Fatal("un-hashed serial state diverged from hashed serial state")
				}
				for _, workers := range []int{1, 2, 4, 8} {
					label := fmt.Sprintf("hashed=%v/workers=%d", hashed, workers)
					if got := runDirect(t, backend, batches, workers); !blobsEqual(got, want) {
						t.Errorf("%s: Pool.Dispatch state diverged from serial", label)
					}
					if got := runQueue(t, backend, batches, workers); !blobsEqual(got, want) {
						t.Errorf("%s: queued state diverged from serial", label)
					}
				}
			}
		})
	}
}
