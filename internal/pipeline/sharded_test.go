package pipeline

import (
	"bytes"
	"fmt"
	"sync"
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

// runDirect drives batches through Pool.Dispatch — the single-dispatcher
// path — and returns the per-statement state blobs.
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

// feedFair drives batches through a Fair lane over a pool of the given size
// with the given dispatch shard count, and returns once all are applied.
func feedFair(t *testing.T, eng *query.Engine, batches [][]stream.Tuple, workers, shards int) {
	t.Helper()
	pool, err := New(eng, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFair(64, shards)
	l := f.AddLane("t", 1, 8, pool, nil)
	for _, ts := range batches {
		if _, ok := l.Enqueue(pool.Plan(ts)); !ok {
			t.Fatal("lane refused an enqueue")
		}
	}
	f.RemoveLane(l)
	f.Close()
	pool.Fence()
	pool.Close()
}

// runFair feeds the property suite through feedFair and returns the
// per-statement state blobs.
func runFair(t *testing.T, backend query.Backend, batches [][]stream.Tuple, workers, shards int) [][]byte {
	t.Helper()
	eng := query.NewEngine(testSchema(t))
	registerPropSuite(t, eng, backend)
	feedFair(t, eng, batches, workers, shards)
	return estBlobs(t, eng)
}

// TestShardedDispatchDeterminism is the sharded-dispatch property test: for
// every partition-safe backend, engine state is bit-identical across
// {single dispatcher, fair dispatch at 1/2/4 shards} × workers {1,2,4,8} ×
// {hashed, generic} Apply, and every combination equals the serial
// reference. Run with -race: the sharded runs exercise concurrent
// DispatchShard calls over shared batches.
func TestShardedDispatchDeterminism(t *testing.T) {
	batches := workload(24, 300)
	for _, name := range []string{"sharded", "exact-striped"} {
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
						t.Errorf("%s: single-dispatcher state diverged from serial", label)
					}
					for _, shards := range []int{1, 2, 4} {
						if got := runFair(t, backend, batches, workers, shards); !blobsEqual(got, want) {
							t.Errorf("%s/shards=%d: fair-dispatch state diverged from serial", label, shards)
						}
					}
				}
			}
		})
	}
}

// TestShardedDispatchMultiTenant checks that DRR interleaving across lanes
// never leaks into per-tenant state: two lanes with unequal weights, fed
// concurrently through sharded dispatch, each finish bit-identical to their
// own serial reference at every shard count.
func TestShardedDispatchMultiTenant(t *testing.T) {
	batches := workload(30, 200)
	backend := backends(9)["sharded"]
	serial := query.NewEngine(testSchema(t))
	registerPropSuite(t, serial, backend)
	for _, ts := range batches {
		serial.ProcessBatch(ts)
	}
	want, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		f := NewFair(64, shards)
		engines := make([]*query.Engine, 2)
		pools := make([]*Pool, 2)
		lanes := make([]*Lane, 2)
		for i := range engines {
			engines[i] = query.NewEngine(testSchema(t))
			registerPropSuite(t, engines[i], backend)
			var err error
			pools[i], err = New(engines[i], Config{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			lanes[i] = f.AddLane(fmt.Sprintf("t%d", i), 1+2*i, 4, pools[i], nil)
		}
		var wg sync.WaitGroup
		for i := range lanes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for _, ts := range batches {
					if _, ok := lanes[i].Enqueue(pools[i].Plan(ts)); !ok {
						t.Error("lane refused an enqueue")
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for i := range lanes {
			f.RemoveLane(lanes[i])
		}
		f.Close()
		for i := range engines {
			pools[i].Fence()
			got, err := engines[i].MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			pools[i].Close()
			if !bytes.Equal(got, want) {
				t.Errorf("shards=%d lane %d: state diverged from serial", shards, i)
			}
		}
	}
}
