package pipeline

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"implicate/internal/core"
	"implicate/internal/dsample"
	"implicate/internal/exact"
	"implicate/internal/imps"
	"implicate/internal/lossy"
	"implicate/internal/query"
	"implicate/internal/stream"
)

func testSchema(t *testing.T) *stream.Schema {
	t.Helper()
	return stream.MustSchema("Source", "Destination", "Service")
}

// workload builds nBatches batches of batchSize tuples with key repetition
// rich enough to exercise supports, exclusions and fringe movement.
func workload(nBatches, batchSize int) [][]stream.Tuple {
	batches := make([][]stream.Tuple, nBatches)
	n := 0
	for b := range batches {
		ts := make([]stream.Tuple, batchSize)
		for i := range ts {
			ts[i] = stream.Tuple{
				fmt.Sprintf("s%d", n%517),
				fmt.Sprintf("d%d", (n*7)%29),
				fmt.Sprintf("svc%d", n%3),
			}
			n++
		}
		batches[b] = ts
	}
	return batches
}

// backends returns the named estimator factories the determinism suite
// drives through the pool, spanning both concurrency classes.
func backends(seed uint64) map[string]query.Backend {
	return map[string]query.Backend{
		// Partition-safe.
		"sharded": func(cond imps.Conditions) (imps.Estimator, error) {
			return core.NewShardedSketch(cond, core.Options{Seed: seed}, 4)
		},
		"exact-striped": func(cond imps.Conditions) (imps.Estimator, error) {
			return exact.NewStriped(cond, 4)
		},
		"nips": func(cond imps.Conditions) (imps.Estimator, error) {
			return core.NewSketch(cond, core.Options{Seed: seed})
		},
		"exact": func(cond imps.Conditions) (imps.Estimator, error) {
			return exact.NewCounter(cond)
		},
		// Serialized.
		"ilc": func(cond imps.Conditions) (imps.Estimator, error) {
			return lossy.NewILC(cond, 0.02, 0.02)
		},
		"ds": func(cond imps.Conditions) (imps.Estimator, error) {
			return dsample.New(cond, 512, 39, seed+7)
		},
	}
}

// registerSuite registers a mixed statement set over one backend: a plain
// statement, a filtered one, a mode alias that shares the first estimator,
// and — for serialized-class runs — a windowed statement.
func registerSuite(t *testing.T, eng *query.Engine, backend query.Backend, windowed bool) {
	t.Helper()
	reg := func(sql string) {
		t.Helper()
		if _, err := eng.RegisterSQL(sql, backend); err != nil {
			t.Fatalf("register %q: %v", sql, err)
		}
	}
	reg(`SELECT COUNT(DISTINCT Source) FROM s WHERE Source IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.6 TOP 1`)
	reg(`SELECT COUNT(DISTINCT Source) FROM s WHERE Source IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.6 TOP 1 AND Service = 'svc1'`)
	// Same predicate, different mode: shares the first statement's estimator.
	reg(`SELECT COUNT(DISTINCT Source) FROM s WHERE Source NOT IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.6 TOP 1`)
	if windowed {
		reg(`SELECT COUNT(DISTINCT Source) FROM s WHERE Source IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.6 TOP 1 WINDOW 2000 EVERY 500`)
	}
}

// baselines names the backends with no checkpoint form, the library-only
// ILC and Distinct Sampling: their runs are compared by their statements'
// counts, every other run by the engine's checkpoint bytes.
var baselines = map[string]bool{"ilc": true, "ds": true}

// engineState returns the engine's checkpoint bytes, or nil for a run of a
// baseline backend.
func engineState(t *testing.T, name string, eng *query.Engine) []byte {
	t.Helper()
	if baselines[name] {
		return nil
	}
	state, err := eng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// sameCounts fails unless every statement of got answers like want's.
func sameCounts(t *testing.T, label string, got, want *query.Engine) {
	t.Helper()
	if got.Tuples() != want.Tuples() {
		t.Errorf("%s: tuple count %d, want %d", label, got.Tuples(), want.Tuples())
	}
	for i, st := range got.Statements() {
		if g, w := st.Count(), want.Statements()[i].Count(); g != w {
			t.Errorf("%s stmt %d: count %v, want %v", label, i, g, w)
		}
	}
}

// runPool drives the batches through a pool of the given size over the
// named backend and returns the engine's state (see engineState).
func runPool(t *testing.T, name string, windowed bool, batches [][]stream.Tuple, workers int) ([]byte, *query.Engine) {
	t.Helper()
	eng := query.NewEngine(testSchema(t))
	registerSuite(t, eng, backends(42)[name], windowed)
	pool, err := New(eng, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	// Plan concurrently (like the server's connection readers), dispatch in
	// order from this goroutine.
	planned := make([]*Batch, len(batches))
	var wg sync.WaitGroup
	for i := range batches {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			planned[i] = pool.Plan(batches[i])
		}(i)
	}
	wg.Wait()
	for _, b := range planned {
		pool.Dispatch(b)
	}
	pool.Fence()
	state := engineState(t, name, eng)
	pool.Close()
	return state, eng
}

// TestPoolDeterminism is the signature invariant: for every backend, the
// engine state after pool ingestion at sizes {1, 2, 4, 8} is bit-identical
// to a serial ProcessBatch run over the same batch sequence.
func TestPoolDeterminism(t *testing.T) {
	batches := workload(40, 500)
	for name, backend := range backends(42) {
		t.Run(name, func(t *testing.T) {
			windowed := name != "sharded" && name != "exact-striped"
			serial := query.NewEngine(testSchema(t))
			registerSuite(t, serial, backend, windowed)
			for _, ts := range batches {
				serial.ProcessBatch(ts)
			}
			want := engineState(t, name, serial)
			for _, workers := range []int{1, 2, 4, 8} {
				got, eng := runPool(t, name, windowed, batches, workers)
				if !baselines[name] && !bytes.Equal(got, want) {
					t.Errorf("workers=%d: pool state diverged from serial run", workers)
				}
				sameCounts(t, fmt.Sprintf("workers=%d", workers), eng, serial)
			}
		})
	}
}

// TestPoolConcurrentReaders runs Count and Tuples readers against a live
// pool (run with -race): reads must be safe mid-ingest for both classes,
// and the final state must still match the serial run.
func TestPoolConcurrentReaders(t *testing.T) {
	batches := workload(30, 400)
	for _, name := range []string{"sharded", "exact-striped", "nips", "ilc"} {
		backend := backends(7)[name]
		t.Run(name, func(t *testing.T) {
			windowed := name == "nips" || name == "ilc"
			serial := query.NewEngine(testSchema(t))
			registerSuite(t, serial, backend, windowed)
			for _, ts := range batches {
				serial.ProcessBatch(ts)
			}
			want := engineState(t, name, serial)

			eng := query.NewEngine(testSchema(t))
			registerSuite(t, eng, backend, windowed)
			pool, err := New(eng, Config{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 3; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						for _, st := range eng.Statements() {
							_ = st.Count()
						}
						_ = eng.Tuples()
					}
				}()
			}
			for _, ts := range batches {
				pool.Dispatch(pool.Plan(ts))
			}
			pool.Fence()
			close(stop)
			readers.Wait()
			got := engineState(t, name, eng)
			pool.Close()
			if baselines[name] {
				sameCounts(t, "concurrent readers", eng, serial)
			} else if !bytes.Equal(got, want) {
				t.Error("state under concurrent readers diverged from serial run")
			}
		})
	}
}

// TestPoolCallbacks checks the accounting hooks: one OnApplied per batch
// with the engine total already advanced, per-worker OnTask units covering
// every planned unit, and OnSaturated firing under a tiny queue.
func TestPoolCallbacks(t *testing.T) {
	batches := workload(20, 100)
	eng := query.NewEngine(testSchema(t))
	registerSuite(t, eng, backends(3)["exact-striped"], false)

	var appliedBatches, appliedTuples, tasks atomic.Int64
	var saturated atomic.Int64
	minTotal := int64(-1)
	var minMu sync.Mutex
	pool, err := New(eng, Config{
		Workers:  4,
		QueueLen: 1,
		OnApplied: func(n int) {
			appliedBatches.Add(1)
			appliedTuples.Add(int64(n))
			// The engine total must already include this batch.
			minMu.Lock()
			if got := eng.Tuples(); got < appliedTuples.Load() {
				minTotal = got
			}
			minMu.Unlock()
		},
		OnTask:      func(worker, units int) { tasks.Add(int64(units)) },
		OnSaturated: func() { saturated.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range batches {
		pool.Dispatch(pool.Plan(ts))
	}
	pool.Fence()
	pool.Close()

	if appliedBatches.Load() != int64(len(batches)) {
		t.Errorf("OnApplied ran %d times, want %d", appliedBatches.Load(), len(batches))
	}
	if appliedTuples.Load() != 20*100 {
		t.Errorf("OnApplied tuple total %d, want %d", appliedTuples.Load(), 20*100)
	}
	if minTotal >= 0 {
		t.Errorf("OnApplied observed engine total %d below the applied total", minTotal)
	}
	if tasks.Load() == 0 {
		t.Error("OnTask never ran")
	}
	if saturated.Load() == 0 {
		t.Error("OnSaturated never fired despite QueueLen=1")
	}
}

// TestPoolDealsOnePartitionOwners: owners whose estimator has one
// partition — here one-stripe sketches, which are partition-safe — are
// dealt round-robin over the workers rather than all applying on worker 0.
func TestPoolDealsOnePartitionOwners(t *testing.T) {
	eng := query.NewEngine(testSchema(t))
	for supp := 2; supp <= 5; supp++ {
		sql := fmt.Sprintf(`SELECT COUNT(DISTINCT Source) FROM s WHERE Source IMPLIES Destination WITH SUPPORT >= %d, MULTIPLICITY <= 2`, supp)
		if _, err := eng.RegisterSQL(sql, backends(1)["nips"]); err != nil {
			t.Fatal(err)
		}
	}
	var units [2]atomic.Int64
	pool, err := New(eng, Config{Workers: 2, OnTask: func(w, n int) { units[w].Add(int64(n)) }})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range workload(10, 200) {
		pool.Dispatch(pool.Plan(ts))
	}
	pool.Fence()
	pool.Close()
	if units[0].Load() == 0 || units[1].Load() == 0 {
		t.Fatalf("worker units %d and %d: one worker applied every statement", units[0].Load(), units[1].Load())
	}
}

// TestPoolFenceBarrier checks that Fence observes every prior dispatch.
func TestPoolFenceBarrier(t *testing.T) {
	eng := query.NewEngine(testSchema(t))
	registerSuite(t, eng, backends(5)["sharded"], false)
	pool, err := New(eng, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	total := 0
	for i, ts := range workload(10, 300) {
		pool.Dispatch(pool.Plan(ts))
		total += len(ts)
		if i%3 == 0 {
			pool.Fence()
			if got := eng.Tuples(); got != int64(total) {
				t.Fatalf("after fence: engine total %d, want %d", got, total)
			}
		}
	}
	pool.Fence()
	if got := eng.Tuples(); got != int64(total) {
		t.Fatalf("after final fence: engine total %d, want %d", got, total)
	}
}

// TestPoolConfigValidation covers constructor errors and defaults.
func TestPoolConfigValidation(t *testing.T) {
	eng := query.NewEngine(testSchema(t))
	if _, err := New(eng, Config{Workers: -1}); err == nil {
		t.Error("negative worker count accepted")
	}
	if _, err := New(eng, Config{QueueLen: -1}); err == nil {
		t.Error("negative queue length accepted")
	}
	pool, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pool.Workers() != 1 || pool.Partitions() != 1 {
		t.Errorf("default pool is %d workers / %d partitions, want 1/1", pool.Workers(), pool.Partitions())
	}
	pool.Close()
	pool, err = New(eng, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pool.Partitions() != 4 {
		t.Errorf("3 workers plan against %d partitions, want 4", pool.Partitions())
	}
	pool.Close()
}
