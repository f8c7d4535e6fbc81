package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"unsafe"

	"implicate/internal/imps"
)

// ShardedSketch is a NIPS/CI sketch partitioned for parallel ingestion.
//
// The stochastic-averaging router already assigns every tuple to exactly one
// of the m bitmaps by the low bits of its A-itemset hash, so one Sketch's
// bitmaps can be guarded by n lock stripes with zero cross-stripe
// coordination on the hot path: stripe s guards the bitmaps whose index is
// congruent to s modulo n, and a tuple's stripe is a mask of its hash. Each
// stripe also owns the tuple and entry counts of the adds it guards and its
// own top-c scratch, so concurrent producers contend only when their tuples
// hash to the same stripe, and AddHashedPairs takes each stripe lock once
// per batch rather than once per tuple.
//
// The state is one Sketch laid out in global bitmap indices, so a
// ShardedSketch is the same-seed Sketch fed the same per-bitmap tuple order:
// every reader takes every stripe lock, folds the stripe counts into that
// Sketch and runs the Sketch's own method, and MarshalBinary writes its
// NIPS\x01 bytes. Any two ingestion schedules that deliver the same
// per-bitmap tuple order produce bit-identical state (a single producer
// always does, whatever the stripe count). The one figure left out is the
// entry high-water mark, which depends on how adds to different stripes
// interleave: a sharded sketch records no peak, and its encoding carries the
// live entry count in the peak field. Reads observe a serializable snapshot
// that includes every Add that returned before the read began; there is no
// buffering and nothing to flush (Flush exists as an explicit no-op
// barrier).
//
// All methods are safe for concurrent use.
type ShardedSketch struct {
	sk      *Sketch
	mask    uint64 // len(stripes)-1: a tuple's stripe is ah & mask
	stripes []stripe
}

// stripe guards the bitmaps whose index is congruent to its own modulo the
// stripe count, and counts the adds to them. Only the sums over all stripes
// are ever read, so a restored sketch books its whole count on stripe 0. The
// struct is padded to a cache line so neighbouring stripes do not
// false-share.
type stripe struct {
	mu sync.Mutex
	counters
	_ [64 - (unsafe.Sizeof(sync.Mutex{})+unsafe.Sizeof(counters{}))%64]byte
}

// NewShardedSketch returns a sharded NIPS/CI sketch with the given shard
// count. shards must be a power of two no larger than the bitmap count m;
// shards == 0 selects GOMAXPROCS rounded down to a power of two (capped at
// m). The result answers every query a same-seed Sketch would, bit for bit.
func NewShardedSketch(cond imps.Conditions, opts Options, shards int) (*ShardedSketch, error) {
	sk, err := NewSketch(cond, opts)
	if err != nil {
		return nil, err
	}
	return stripeSketch(sk, shards)
}

// stripeSketch puts sk behind the given number of lock stripes (0 selects
// the default) and books sk's counts on stripe 0.
func stripeSketch(sk *Sketch, shards int) (*ShardedSketch, error) {
	m := len(sk.bms)
	if shards == 0 {
		shards = min(1<<(bits.Len(uint(runtime.GOMAXPROCS(0)))-1), m) // rounded down to a power of two
	}
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("core: shard count %d must be a power of two", shards)
	}
	if shards > m {
		return nil, fmt.Errorf("core: shard count %d exceeds bitmap count %d", shards, m)
	}
	ss := &ShardedSketch{sk: sk, mask: uint64(shards - 1), stripes: make([]stripe, shards)}
	for i := range ss.stripes {
		ss.stripes[i].counters = newCounters(sk.cond)
	}
	ss.stripes[0].tuples, ss.stripes[0].entries = sk.tuples, sk.entries
	return ss, nil
}

// Conditions returns the implication conditions the sketch enforces.
func (ss *ShardedSketch) Conditions() imps.Conditions { return ss.sk.cond }

// Options returns the effective (defaulted) options; Bitmaps is the global
// bitmap count, identical to the equivalent single Sketch.
func (ss *ShardedSketch) Options() Options { return ss.sk.opts }

// Shards returns the shard (lock stripe) count.
func (ss *ShardedSketch) Shards() int { return len(ss.stripes) }

// ConfigFingerprint identifies the sharded-sketch algorithm and its
// accuracy-relevant configuration. The shard count is excluded: it is not
// part of the state, so differently sharded sketches are interchangeable.
func (ss *ShardedSketch) ConfigFingerprint() string {
	o := ss.sk.opts
	return fmt.Sprintf("sharded(%s|m=%d,F=%d,unbounded=%t,slack=%d)", ss.sk.cond, o.Bitmaps, o.FringeSize, o.Unbounded, o.Slack)
}

// Add observes one tuple: a is the encoded A-itemset, b the encoded
// B-itemset.
func (ss *ShardedSketch) Add(a, b string) {
	ss.AddHashed(ss.HashPairKeys(a, b))
}

// AddIDs observes a tuple whose itemsets are identified by integers, the
// fast path for synthetic workloads.
func (ss *ShardedSketch) AddIDs(a, b uint64) {
	ss.AddHashed(ss.sk.ahash.SumUint64(a), ss.sk.bhash.SumUint64(b))
}

// AddHashed observes a tuple by the 64-bit hashes of its itemsets, locking
// only the stripe that guards the tuple's bitmap. The router picks the
// bitmap by the low bits of ah, so ah's low bits also name the stripe.
func (ss *ShardedSketch) AddHashed(ah, bh uint64) {
	st := &ss.stripes[ah&ss.mask]
	st.mu.Lock()
	ss.sk.ingest(&st.counters, ah, bh)
	st.mu.Unlock()
}

// HashPairKeys implements imps.HashedPartitionedAdder: the planner computes
// this sketch's own seeded hashes once and forwards them through the plan
// IR, so the ingest path never re-hashes a key. Producer goroutines can hash
// their tuples without any lock.
func (ss *ShardedSketch) HashPairKeys(a, b string) (ah, bh uint64) {
	return ss.sk.ahash.Sum(a), ss.sk.bhash.Sum(b)
}

// IngestPartitionHashed maps a pre-hashed A key to the ingest partition that
// must observe it when the caller splits a batch across n concurrent
// workers.
//
// The partition is the low bits of the A-hash — the same bits the
// stochastic-averaging router uses to pick the tuple's bitmap and this
// type uses to pick the stripe — so every bitmap's tuples stay in one
// partition and per-partition FIFO delivery reproduces each bitmap's
// order-sensitive cell evolution (overflow kills, fringe push-outs). Nothing
// else in the state depends on order. n is clamped to the stripe count only
// so that two workers never share one stripe lock.
//
// The partition of a key does not depend on the worker count beyond the
// clamp: partition p under 2n splits into {p, p+n} under n's refinement,
// so any power-of-two pool size yields the same per-bitmap order.
func (ss *ShardedSketch) IngestPartitionHashed(ah uint64, n int) int {
	if n > len(ss.stripes) {
		n = len(ss.stripes)
	}
	return int(ah & uint64(n-1))
}

// AddHashedPairs ingests plan-IR pairs whose hashes came from HashPairKeys,
// taking each stripe lock at most once for the whole slice: the per-tuple
// cost is a hash mask and Algorithm 1 itself. The keys ride along for exact
// backends and are ignored here; bit-identity to per-pair Add follows from
// both paths using the same seeded hash functions.
func (ss *ShardedSketch) AddHashedPairs(pairs []imps.HashedPair) {
	for si := range ss.stripes {
		st := &ss.stripes[si]
		locked := false
		for i := range pairs {
			if int(pairs[i].AH&ss.mask) != si {
				continue
			}
			if !locked {
				st.mu.Lock()
				locked = true
			}
			ss.sk.ingest(&st.counters, pairs[i].AH, pairs[i].BH)
		}
		if locked {
			st.mu.Unlock()
		}
	}
}

// Flush is the read barrier for externally buffered producers: it acquires
// and releases every stripe lock, so it returns only after every Add that
// started before the call has been applied. Because the Add paths are
// synchronous (no internal buffering), callers that only query through this
// type never need it — estimator reads take the same locks themselves.
func (ss *ShardedSketch) Flush() {
	ss.lockAll()
	ss.unlockAll()
}

func (ss *ShardedSketch) lockAll() {
	for i := range ss.stripes {
		ss.stripes[i].mu.Lock()
	}
}

func (ss *ShardedSketch) unlockAll() {
	for i := range ss.stripes {
		ss.stripes[i].mu.Unlock()
	}
}

// view takes every stripe lock and returns the sketch with the stripes'
// counts folded in, its peak set to the live entry count. The caller reads
// it and then calls unlockAll.
func (ss *ShardedSketch) view() *Sketch {
	ss.lockAll()
	s := ss.sk
	s.tuples, s.entries = 0, 0
	for i := range ss.stripes {
		s.tuples += ss.stripes[i].tuples
		s.entries += ss.stripes[i].entries
	}
	s.peak = s.entries
	return s
}

// read runs one Sketch reader on the folded view under every stripe lock.
func read[T any](ss *ShardedSketch, f func(*Sketch) T) T {
	defer ss.unlockAll()
	return f(ss.view())
}

// ImplicationCount estimates S, the number of distinct A-itemsets implying
// B; see Sketch.ImplicationCount for the estimator.
func (ss *ShardedSketch) ImplicationCount() float64 { return read(ss, (*Sketch).ImplicationCount) }

// ImplicationCountInterval returns an approximate confidence interval around
// ImplicationCount at z standard errors; see Sketch.ImplicationCountInterval.
func (ss *ShardedSketch) ImplicationCountInterval(z float64) (lo, hi float64) {
	s := ss.view()
	defer ss.unlockAll()
	return s.ImplicationCountInterval(z)
}

// CIImplicationCount is Algorithm 2 (CI): S = F0^sup(A) − ~S, clamped at
// zero, computed under one consistent snapshot of all stripes.
func (ss *ShardedSketch) CIImplicationCount() float64 { return read(ss, (*Sketch).CIImplicationCount) }

// NonImplicationCount estimates ~S: distinct A-itemsets that met the support
// condition but violated multiplicity or top-confidence.
func (ss *ShardedSketch) NonImplicationCount() float64 {
	return read(ss, (*Sketch).NonImplicationCount)
}

// SupportedDistinct estimates F0^sup(A): distinct A-itemsets meeting the
// minimum-support condition.
func (ss *ShardedSketch) SupportedDistinct() float64 { return read(ss, (*Sketch).SupportedDistinct) }

// DistinctCount estimates F0(A): all distinct A-itemsets seen, regardless of
// support.
func (ss *ShardedSketch) DistinctCount() float64 { return read(ss, (*Sketch).DistinctCount) }

// AvgMultiplicity estimates the mean number of distinct B-partners over
// implicating itemsets; see Sketch.AvgMultiplicity.
func (ss *ShardedSketch) AvgMultiplicity() float64 { return read(ss, (*Sketch).AvgMultiplicity) }

// MinEstimable returns the smallest non-implication count the bounded
// fringe can resolve, 2^−F · F0(A); see Sketch.MinEstimable.
func (ss *ShardedSketch) MinEstimable() float64 { return read(ss, (*Sketch).MinEstimable) }

// Tuples returns the number of tuples observed across all stripes.
func (ss *ShardedSketch) Tuples() int64 { return read(ss, (*Sketch).Tuples) }

// MemEntries returns the number of live counter entries — identical to the
// equivalent single sketch's footprint.
func (ss *ShardedSketch) MemEntries() int { return read(ss, (*Sketch).MemEntries) }

// Fringe returns current fringe occupancy statistics.
func (ss *ShardedSketch) Fringe() FringeStats { return read(ss, (*Sketch).Fringe) }

// MarshalBinary encodes the complete state as the NIPS\x01 bytes of the
// equivalent single Sketch, with the live entry count in the peak field. It
// takes every stripe lock, so the snapshot is a serializable cut that
// includes every Add that returned before the call.
func (ss *ShardedSketch) MarshalBinary() ([]byte, error) {
	s := ss.view()
	defer ss.unlockAll()
	return s.MarshalBinary()
}

// Reset returns the sketch to its freshly constructed state.
func (ss *ShardedSketch) Reset() {
	ss.lockAll()
	defer ss.unlockAll()
	ss.sk.Reset()
	for i := range ss.stripes {
		st := &ss.stripes[i]
		st.tuples, st.entries, st.peak = 0, 0, 0
	}
}

var _ imps.Estimator = (*ShardedSketch)(nil)
var _ imps.MultiplicityAverager = (*ShardedSketch)(nil)
var _ imps.HashedPartitionedAdder = (*ShardedSketch)(nil)
