package implicate

import "sync"

// Synchronized wraps an estimator with a read-write mutex so multiple
// goroutines can feed and query it concurrently. The underlying estimators
// are deliberately lock-free single-writer structures — the paper's per-item
// cost analysis (§4.6) budgets a handful of hash and counter operations per
// tuple, and an uncontended fast path must not pay for synchronization it
// does not need — so wrap them only when tuples genuinely arrive from
// multiple goroutines.
//
// Two concurrency wrappers exist and they trade differently:
//
//   - Synchronized serializes every Add through one lock. It works for any
//     estimator (exact, ILC, Distinct Sampling, windows, ...) but caps
//     ingest throughput at one core, whatever the producer count.
//   - ShardedSketch partitions a NIPS/CI sketch's bitmaps across
//     independently locked shards, so producers ingest in parallel. Prefer
//     it whenever the estimator is the sketch and ingest rate matters.
//
// Query methods (ImplicationCount, Tuples, MemEntries, ...) take only the
// read lock, so monitoring reads never stall ingestion behind one another;
// they still exclude writers. This requires the wrapped estimator's query
// methods to be read-only, which holds for every estimator in this module.
//
// The wrapper promises Add and the read methods, nothing more: it does not
// forward the wrapped estimator's batched ingest contract, so a query
// engine feeds it as a serialized estimator. If the wrapped estimator
// supports AvgMultiplicity the wrapper forwards it; otherwise
// AvgMultiplicity returns 0 — the query engine therefore checks the
// estimator Unwrap returns, not the wrapper, before accepting
// AVG(MULTIPLICITY(...)).
func Synchronized(est Estimator) *SyncEstimator {
	return &SyncEstimator{est: est}
}

// SyncEstimator is a mutex-guarded estimator; see Synchronized.
type SyncEstimator struct {
	mu  sync.RWMutex
	est Estimator
}

// Add observes one tuple.
func (s *SyncEstimator) Add(a, b string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.est.Add(a, b)
}

// ImplicationCount estimates S.
func (s *SyncEstimator) ImplicationCount() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.est.ImplicationCount()
}

// NonImplicationCount estimates ~S.
func (s *SyncEstimator) NonImplicationCount() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.est.NonImplicationCount()
}

// SupportedDistinct estimates F0^sup(A).
func (s *SyncEstimator) SupportedDistinct() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.est.SupportedDistinct()
}

// Tuples returns the number of tuples observed.
func (s *SyncEstimator) Tuples() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.est.Tuples()
}

// MemEntries reports the wrapped estimator's footprint.
func (s *SyncEstimator) MemEntries() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.est.MemEntries()
}

// AvgMultiplicity forwards to the wrapped estimator when supported.
func (s *SyncEstimator) AvgMultiplicity() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ma, ok := s.est.(MultiplicityAverager); ok {
		return ma.AvgMultiplicity()
	}
	return 0
}

// Unwrap returns the underlying estimator. Callers must not use it while
// other goroutines still use the wrapper.
func (s *SyncEstimator) Unwrap() Estimator { return s.est }

var (
	_ Estimator            = (*SyncEstimator)(nil)
	_ MultiplicityAverager = (*SyncEstimator)(nil)
)
