package implicate_test

import (
	"fmt"
	"sync"
	"testing"

	"implicate"
	"implicate/internal/query"
)

func TestSynchronizedConcurrentUse(t *testing.T) {
	cond := implicate.Conditions{MaxMultiplicity: 2, MinSupport: 3, TopC: 1, MinTopConfidence: 0.8}
	sk, err := implicate.NewSketch(cond, implicate.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	est := implicate.Synchronized(sk)

	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := (w*perWorker + i) % 2000
				est.Add(fmt.Sprintf("a%d", id), fmt.Sprintf("b%d", id))
				if i%512 == 0 {
					_ = est.ImplicationCount()
					_ = est.NonImplicationCount()
					_ = est.SupportedDistinct()
					_ = est.AvgMultiplicity()
					_ = est.MemEntries()
				}
			}
		}(w)
	}
	wg.Wait()

	if got := est.Tuples(); got != workers*perWorker {
		t.Fatalf("Tuples = %d, want %d", got, workers*perWorker)
	}
	// 2000 itemsets, each with one partner and ample support: all imply.
	if got := est.ImplicationCount(); got < 1500 || got > 2500 {
		t.Fatalf("count = %v, want ≈2000", got)
	}
	if est.Unwrap() != implicate.Estimator(sk) {
		t.Fatal("Unwrap lost the estimator")
	}
}

func TestSynchronizedAvgMultiplicityFallback(t *testing.T) {
	// A minimal estimator without the aggregate.
	est := implicate.Synchronized(bareEstimator{})
	if got := est.AvgMultiplicity(); got != 0 {
		t.Fatalf("fallback AvgMultiplicity = %v", got)
	}
}

type bareEstimator struct{}

func (bareEstimator) Add(a, b string)              {}
func (bareEstimator) ImplicationCount() float64    { return 0 }
func (bareEstimator) NonImplicationCount() float64 { return 0 }
func (bareEstimator) SupportedDistinct() float64   { return 0 }
func (bareEstimator) Tuples() int64                { return 0 }
func (bareEstimator) MemEntries() int              { return 0 }

// TestSynchronizedAvgRequiresInnerAverager: the wrapper always has an
// AvgMultiplicity method and answers 0 when the wrapped estimator has none,
// so a mode check against the wrapper would accept AVG(MULTIPLICITY(...))
// and the statement would read 0 forever. The engine must look through
// Unwrap — on the compile path and on the engine's Register path — and
// still accept a wrapper around an estimator that can average.
func TestSynchronizedAvgRequiresInnerAverager(t *testing.T) {
	schema, err := implicate.NewSchema("Source", "Destination")
	if err != nil {
		t.Fatal(err)
	}
	const avg = `SELECT AVG(MULTIPLICITY(Source)) FROM t WHERE Source IMPLIES Destination WITH SUPPORT >= 1, MULTIPLICITY <= 5, CONFIDENCE >= 0.1 TOP 1`
	bare := func(implicate.Conditions) (implicate.Estimator, error) {
		return implicate.Synchronized(bareEstimator{}), nil
	}
	q, err := implicate.ParseQuery(avg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := query.Compile(*q, schema, bare); err == nil {
		t.Error("AVG compiled against Synchronized(<estimator without the aggregate>)")
	}
	if _, err := implicate.NewEngine(schema).RegisterSQL(avg, bare); err == nil {
		t.Error("AVG registered against Synchronized(<estimator without the aggregate>)")
	}

	eng := implicate.NewEngine(schema)
	st, err := eng.RegisterSQL(avg, func(cond implicate.Conditions) (implicate.Estimator, error) {
		ex, err := implicate.NewExact(cond)
		return implicate.Synchronized(ex), err
	})
	if err != nil {
		t.Fatalf("AVG over Synchronized(exact) rejected: %v", err)
	}
	eng.ProcessBatch([]implicate.Tuple{{"s1", "d1"}, {"s1", "d2"}, {"s2", "d1"}})
	if got := st.Count(); got != 1.5 {
		t.Errorf("AVG over Synchronized(exact) = %v, want 1.5", got)
	}
}
