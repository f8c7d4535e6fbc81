// Package imps holds the shared primitives of the implication-statistics
// framework: the implication conditions of Sismanis & Roussopoulos (ICDE
// 2005, §3.1.1) and the estimator contract every counting algorithm in this
// repository implements (NIPS/CI, the exact hash-table counter, Implication
// Lossy Counting, Distinct Sampling, ...).
package imps

import (
	"errors"
	"fmt"
)

// Conditions are the implication conditions of §3.1.1. An itemset a of A
// implies B, written a → B, when at every point of the stream after its
// support first reaches MinSupport:
//
//  1. it has appeared with at most MaxMultiplicity distinct itemsets of B,
//  2. its support σ(a) is at least MinSupport, and
//  3. its top-c confidence Ψ_c(a,B) = (Σ of the TopC largest σ(a,b)) / σ(a)
//     is at least MinTopConfidence.
//
// Once an itemset that satisfies the support condition fails either of the
// other two it is discarded from the implication count forever (§3.1.1).
type Conditions struct {
	// MaxMultiplicity is K: the maximum number of distinct B-itemsets an
	// implicating A-itemset may appear with.
	MaxMultiplicity int
	// MinSupport is τ: the minimum absolute number of tuples an itemset must
	// appear in before it is considered at all.
	MinSupport int64
	// TopC is c: how many of the largest per-b supports are summed when
	// computing the top-confidence level.
	TopC int
	// MinTopConfidence is ψ ∈ (0,1]: the minimum top-c confidence.
	MinTopConfidence float64
}

// Validate reports whether the conditions are internally consistent.
func (c Conditions) Validate() error {
	switch {
	case c.MaxMultiplicity < 1:
		return fmt.Errorf("imps: MaxMultiplicity must be >= 1, got %d", c.MaxMultiplicity)
	case c.TopC < 1:
		return fmt.Errorf("imps: TopC must be >= 1, got %d", c.TopC)
	case c.TopC > c.MaxMultiplicity:
		return fmt.Errorf("imps: TopC (%d) must not exceed MaxMultiplicity (%d)", c.TopC, c.MaxMultiplicity)
	case c.MinSupport < 1:
		return fmt.Errorf("imps: MinSupport must be >= 1, got %d", c.MinSupport)
	case c.MinTopConfidence <= 0 || c.MinTopConfidence > 1:
		return fmt.Errorf("imps: MinTopConfidence must be in (0,1], got %g", c.MinTopConfidence)
	}
	return nil
}

// String renders the conditions the way the paper writes them.
func (c Conditions) String() string {
	return fmt.Sprintf("K=%d τ=%d ψ%d=%.2f", c.MaxMultiplicity, c.MinSupport, c.TopC, c.MinTopConfidence)
}

// ErrClosed is returned by estimators that reject updates after Close.
var ErrClosed = errors.New("imps: estimator is closed")

// Estimator is the contract shared by all implication-count algorithms.
// Add feeds one (a, b) itemset pair — one stream tuple projected onto the
// A and B attribute sets. Counts may be read at any time.
//
// # The ingest contract
//
// There is one road from a tuple to an estimator: a planner (the query
// engine's Statement.Plan) filters and projects the tuple into a HashedPair,
// and an apply step (Statement.Apply) hands buckets of pairs to the
// estimator. Estimators come in two classes, told apart by whether they
// implement HashedPartitionedAdder:
//
//   - Every Estimator is at least the serialized class: one partition, the
//     pair's hashes unused, Add(p.A, p.B) per pair under the statement's
//     exclusive lock, in arrival order. ILC and Distinct Sampling — whose
//     state depends on the order of the whole stream, not per key — sliding
//     windows and the Synchronized wrapper are this class.
//   - A HashedPartitionedAdder is the partition-safe class: the planner
//     hashes each key once with the estimator's own functions, buckets pairs
//     along the estimator's own partitions, and concurrent workers apply
//     distinct partitions without any statement-level lock. The NIPS
//     sketch and the exact counter, each at any lock stripe count, are this
//     class; they synchronize internally.
//
// In both classes the keys a pair carries may alias a buffer shared by the
// whole batch (a decoded record region, an assembled-key string), so an
// estimator must copy any key it retains past the call (strings.Clone on
// first insert).
type Estimator interface {
	// Add observes one tuple whose A-projection encodes to a and whose
	// B-projection encodes to b. Implementations copy any key they retain.
	Add(a, b string)
	// ImplicationCount estimates S: the number of distinct A-itemsets that
	// imply B under the estimator's conditions.
	ImplicationCount() float64
	// NonImplicationCount estimates ~S: the number of distinct A-itemsets
	// that meet the support condition but violate multiplicity or
	// top-confidence.
	NonImplicationCount() float64
	// SupportedDistinct estimates F0^sup(A): the number of distinct
	// A-itemsets meeting the support condition.
	SupportedDistinct() float64
	// Tuples returns the number of tuples observed so far.
	Tuples() int64
	// MemEntries reports the number of counter entries currently held, the
	// measure the paper uses to compare memory footprints.
	MemEntries() int
}

// HashedPair is the ingest IR: one tuple's projected keys together with the
// estimator's own hashes of them, computed exactly once at plan time by
// HashPairKeys (zero for estimators of the serialized class, which hash —
// if at all — inside Add). The strings stay because exact backends index by
// key, not by hash; the hashes stay because sketch backends route and rank
// by hash, not by key.
type HashedPair struct {
	A, B   string
	AH, BH uint64
}

// HashedPartitionedAdder is the one optional ingest contract: estimators
// whose ingest may be split across concurrent workers without changing the
// resulting state, fed key hashes forwarded from the planner instead of
// re-hashing. The hashes are estimator-specific — each implementation seeds
// its own hash functions — so they must come from the same estimator's
// HashPairKeys. The contract:
//
//   - IngestPartitionHashed maps every key to exactly one of n partitions
//     (n a power of two >= 1), so all tuples of one key land in one
//     partition. The implementation chooses partitions compatible with its
//     internal routing: the NIPS sketch partitions on the low bits of the
//     A-hash so that all tuples addressed to one bitmap — where arrival
//     order determines overflow kills and fringe push-outs, the only
//     order-sensitive part of its state — stay in one partition, and caps
//     n at its lock stripe count only so that two workers never share a
//     stripe lock;
//   - any two ingestion schedules that preserve the relative pair order
//     within each partition leave the estimator in identical (bit-for-bit
//     marshalled) state, and that state equals per-pair Add in the same
//     order;
//   - concurrent AddHashedPairs calls are safe whenever no two in-flight
//     calls carry pairs of the same partition.
type HashedPartitionedAdder interface {
	// HashPairKeys computes this estimator's hashes of one projected pair.
	// Implementations that hash only the A key (exact stores) return bh = 0.
	HashPairKeys(a, b string) (ah, bh uint64)
	// IngestPartitionHashed routes a pre-hashed A key to its partition in
	// [0, n). n must be a power of two >= 1.
	IngestPartitionHashed(ah uint64, n int) int
	// AddHashedPairs ingests pairs whose hashes were forwarded from
	// HashPairKeys. The caller may reuse the slice after the call returns;
	// implementations must copy any key they retain.
	AddHashedPairs(pairs []HashedPair)
}

// MultiplicityAverager is implemented by estimators that can additionally
// report the average multiplicity |φ(a→B)| over the itemsets currently in
// the implication count — the aggregate of Table 2's "Complex Implication"
// row ("average number of destinations that ... are contacted from more
// than ten sources").
type MultiplicityAverager interface {
	// AvgMultiplicity returns the mean number of distinct B-itemsets per
	// implicating A-itemset, or 0 when the count is empty.
	AvgMultiplicity() float64
}

// ConfigFingerprinter is implemented by estimators whose configuration can
// be summarized as a string: two estimators with equal fingerprints run the
// same algorithm with the same accuracy-relevant parameters and are
// interchangeable for answering one query. The query engine combines the
// fingerprint with the backend's identity to decide when two registrations
// may share a single estimator — comparing configurations is what keeps two
// backends built from the same factory with different parameters (which
// share a closure code pointer) from silently aliasing one estimator.
//
// Auto-derived hash seeds are deliberately excluded from fingerprints:
// backends mint a fresh seed per construction, and the seed affects only
// the randomness of an estimate, never which statistic it answers or how
// accurately.
type ConfigFingerprinter interface {
	// ConfigFingerprint returns a string identifying the estimator's type
	// and configuration (not its state).
	ConfigFingerprint() string
}

// TopSum returns the sum of the c largest values in counts. It mutates a
// scratch copy, not counts itself. The per-itemset counter sets the paper's
// algorithms maintain are tiny (at most K+1 entries), so a partial selection
// pass is cheaper than maintaining a heap.
func TopSum(counts []int64, c int) int64 {
	if c <= 0 || len(counts) == 0 {
		return 0
	}
	if c >= len(counts) {
		var sum int64
		for _, v := range counts {
			sum += v
		}
		return sum
	}
	// Partial selection sort of the c largest values; c and len(counts) are
	// both bounded by K+1.
	scratch := make([]int64, len(counts))
	copy(scratch, counts)
	var sum int64
	for i := 0; i < c; i++ {
		max := i
		for j := i + 1; j < len(scratch); j++ {
			if scratch[j] > scratch[max] {
				max = j
			}
		}
		scratch[i], scratch[max] = scratch[max], scratch[i]
		sum += scratch[i]
	}
	return sum
}

// TopConfidence returns Ψ_c — the top-c confidence of an itemset with the
// given per-b supports and total support. It returns 0 when support is 0.
func TopConfidence(perB []int64, c int, support int64) float64 {
	if support <= 0 {
		return 0
	}
	return float64(TopSum(perB, c)) / float64(support)
}
