package core

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"runtime"
	"sync"

	"implicate/internal/fm"
	"implicate/internal/imps"
	"implicate/internal/xhash"
)

// ShardedSketch is a NIPS/CI sketch partitioned for parallel ingestion.
//
// The stochastic-averaging router already assigns every tuple to exactly one
// of the m bitmaps by the low bits of its A-itemset hash, so the bitmaps can
// be split across n shards with zero cross-shard coordination on the hot
// path: shard s owns the bitmaps whose index is congruent to s modulo n, and
// a tuple's shard is a mask of its hash. Each shard guards its sub-sketch
// with its own mutex; concurrent producers contend only when their tuples
// hash to the same shard, and AddHashedPairs takes each shard lock once per
// batch rather than once per tuple.
//
// A ShardedSketch is numerically identical to a single Sketch built with the
// same conditions, options and seed: routing, ranks and per-bitmap cell
// evolution are byte-for-byte the same computation, merely executed on the
// shard that owns the bitmap. Any two ingestion schedules that deliver the
// same per-bitmap tuple order produce bit-identical estimates (and a single
// producer always does, whatever the shard count). Estimator reads take
// every shard lock, so they observe a serializable snapshot that includes
// every Add that returned before the read began; there is no buffering and
// nothing to flush (Flush exists as an explicit no-op barrier).
//
// All methods are safe for concurrent use.
type ShardedSketch struct {
	cond   imps.Conditions
	opts   Options
	router xhash.Router
	ahash  xhash.Hash
	bhash  xhash.Hash

	shardMask  uint64 // nShards-1: a tuple's shard is ah & shardMask
	shardShift uint   // log2(nShards): global bitmap bm lives at local index bm >> shardShift
	shards     []sketchShard
}

// sketchShard is one mutex-guarded sub-sketch. The struct is padded to a
// cache line so shard locks on adjacent array slots do not false-share.
type sketchShard struct {
	mu sync.Mutex
	sk *Sketch
	_  [48]byte
}

// NewShardedSketch returns a sharded NIPS/CI sketch with the given shard
// count. shards must be a power of two no larger than the bitmap count m;
// shards == 0 selects GOMAXPROCS rounded down to a power of two (capped at
// m). The result answers every query a same-seed Sketch would, bit for bit.
func NewShardedSketch(cond imps.Conditions, opts Options, shards int) (*ShardedSketch, error) {
	opts = opts.withDefaults()
	if shards == 0 {
		shards = 1 << (bits.Len(uint(runtime.GOMAXPROCS(0))) - 1) // rounded down to a power of two
		if shards > opts.Bitmaps {
			shards = opts.Bitmaps
		}
	}
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("core: shard count %d must be a power of two", shards)
	}
	if shards > opts.Bitmaps {
		return nil, fmt.Errorf("core: shard count %d exceeds bitmap count %d", shards, opts.Bitmaps)
	}
	router, err := xhash.NewRouter(opts.Bitmaps)
	if err != nil {
		return nil, err
	}
	subOpts := opts
	subOpts.Bitmaps = opts.Bitmaps / shards
	ss := &ShardedSketch{
		cond:       cond,
		opts:       opts,
		router:     router,
		ahash:      xhash.New(opts.Seed),
		bhash:      xhash.New(xhash.Mix(opts.Seed + 0x9e3779b97f4a7c15)),
		shardMask:  uint64(shards - 1),
		shardShift: uint(bits.TrailingZeros(uint(shards))),
		shards:     make([]sketchShard, shards),
	}
	for i := range ss.shards {
		sk, err := NewSketch(cond, subOpts)
		if err != nil {
			return nil, err
		}
		ss.shards[i].sk = sk
	}
	return ss, nil
}

// Conditions returns the implication conditions the sketch enforces.
func (ss *ShardedSketch) Conditions() imps.Conditions { return ss.cond }

// Options returns the effective (defaulted) options; Bitmaps is the global
// bitmap count, identical to the equivalent single Sketch.
func (ss *ShardedSketch) Options() Options { return ss.opts }

// Shards returns the shard count.
func (ss *ShardedSketch) Shards() int { return len(ss.shards) }

// Add observes one tuple: a is the encoded A-itemset, b the encoded
// B-itemset.
func (ss *ShardedSketch) Add(a, b string) {
	ss.AddHashed(ss.ahash.Sum(a), ss.bhash.Sum(b))
}

// AddIDs observes a tuple whose itemsets are identified by integers, the
// fast path for synthetic workloads.
func (ss *ShardedSketch) AddIDs(a, b uint64) {
	ss.AddHashed(ss.ahash.SumUint64(a), ss.bhash.SumUint64(b))
}

// AddHashed observes a tuple by the 64-bit hashes of its itemsets, locking
// only the shard that owns the tuple's bitmap.
func (ss *ShardedSketch) AddHashed(ah, bh uint64) {
	bm, rank := ss.router.Route(ah)
	if rank >= Levels {
		rank = Levels - 1
	}
	sh := &ss.shards[uint64(bm)&ss.shardMask]
	sh.mu.Lock()
	sh.sk.addRouted(bm>>ss.shardShift, rank, ah, bh)
	sh.mu.Unlock()
}

// HashPairKeys implements imps.HashedPartitionedAdder: the planner computes
// this sketch's own seeded hashes once and forwards them through the plan
// IR, so the ingest path never re-hashes a key. Producer goroutines can hash
// their tuples without any lock.
func (ss *ShardedSketch) HashPairKeys(a, b string) (ah, bh uint64) {
	return ss.ahash.Sum(a), ss.bhash.Sum(b)
}

// IngestPartitionHashed maps a pre-hashed A key to the ingest partition that
// must observe it when the caller splits a batch across n concurrent
// workers.
//
// The partition is the low bits of the A-hash — the same bits the
// stochastic-averaging router uses to pick the tuple's bitmap and this
// type uses to pick the shard — clamped so that n never exceeds the shard
// count. The clamp makes a partition exactly one shard (or a power-of-two
// group of shards), so per-partition FIFO delivery reproduces the serial
// run's per-shard add sequence verbatim: not just every bitmap's
// order-sensitive cell evolution (overflow kills, fringe push-outs) but
// also the shard's entry high-water mark, which tracks the interleaving
// across its bitmaps and is part of the marshalled state. Finer partitions
// would still give bit-identical estimates, but could interleave two
// partitions of one shard and perturb that high-water mark.
//
// The partition of a key does not depend on the worker count beyond the
// clamp: partition p under 2n splits into {p, p+n} under n's refinement,
// so any power-of-two pool size yields the same per-shard order.
func (ss *ShardedSketch) IngestPartitionHashed(ah uint64, n int) int {
	if n > len(ss.shards) {
		n = len(ss.shards)
	}
	return int(ah & uint64(n-1))
}

// AddHashedPairs ingests plan-IR pairs whose hashes came from HashPairKeys,
// taking each shard lock at most once for the whole slice: the per-tuple
// cost is a hash mask and Algorithm 1 itself. The keys ride along for exact
// backends and are ignored here; bit-identity to per-pair Add follows from
// both paths using the same seeded hash functions.
func (ss *ShardedSketch) AddHashedPairs(pairs []imps.HashedPair) {
	for si := range ss.shards {
		sh := &ss.shards[si]
		locked := false
		for i := range pairs {
			if int(pairs[i].AH&ss.shardMask) != si {
				continue
			}
			if !locked {
				sh.mu.Lock()
				locked = true
			}
			bm, rank := ss.router.Route(pairs[i].AH)
			if rank >= Levels {
				rank = Levels - 1
			}
			sh.sk.addRouted(bm>>ss.shardShift, rank, pairs[i].AH, pairs[i].BH)
		}
		if locked {
			sh.mu.Unlock()
		}
	}
}

// Flush is the read barrier for externally buffered producers: it acquires
// and releases every shard lock, so it returns only after every Add that
// started before the call has been applied. Because the Add paths are
// synchronous (no internal buffering), callers that only query through this
// type never need it — estimator reads take the same locks themselves.
func (ss *ShardedSketch) Flush() {
	ss.lockAll()
	ss.unlockAll()
}

func (ss *ShardedSketch) lockAll() {
	for i := range ss.shards {
		ss.shards[i].mu.Lock()
	}
}

func (ss *ShardedSketch) unlockAll() {
	for i := range ss.shards {
		ss.shards[i].mu.Unlock()
	}
}

// bitmaps yields every bitmap across all shards; the caller must hold every
// shard lock. Readers are pure sums over bitmaps, so the shard-major order
// (vs the single sketch's index-major order) does not affect any estimate.
func (ss *ShardedSketch) bitmaps() iter.Seq[*bitmap] {
	return func(yield func(*bitmap) bool) {
		for si := range ss.shards {
			sk := ss.shards[si].sk
			for i := range sk.bms {
				if !yield(&sk.bms[i]) {
					return
				}
			}
		}
	}
}

// ImplicationCount estimates S, the number of distinct A-itemsets implying
// B; see Sketch.ImplicationCount for the estimator.
func (ss *ShardedSketch) ImplicationCount() float64 {
	ss.lockAll()
	defer ss.unlockAll()
	return implicationCountOver(ss.bitmaps(), ss.opts.Bitmaps)
}

// ImplicationCountInterval returns an approximate confidence interval around
// ImplicationCount at z standard errors; see Sketch.ImplicationCountInterval.
func (ss *ShardedSketch) ImplicationCountInterval(z float64) (lo, hi float64) {
	ss.lockAll()
	defer ss.unlockAll()
	return implicationIntervalOver(ss.bitmaps(), ss.opts.Bitmaps, z)
}

// CIImplicationCount is Algorithm 2 (CI): S = F0^sup(A) − ~S, clamped at
// zero, computed under one consistent snapshot of all shards.
func (ss *ShardedSketch) CIImplicationCount() float64 {
	ss.lockAll()
	defer ss.unlockAll()
	d := ss.supportedDistinct() - ss.nonImplicationCount()
	if d < 0 {
		return 0
	}
	return d
}

// NonImplicationCount estimates ~S: distinct A-itemsets that met the support
// condition but violated multiplicity or top-confidence.
func (ss *ShardedSketch) NonImplicationCount() float64 {
	ss.lockAll()
	defer ss.unlockAll()
	return ss.nonImplicationCount()
}

func (ss *ShardedSketch) nonImplicationCount() float64 {
	return fm.CorrectedEstimate(meanROver(ss.bitmaps(), ss.opts.Bitmaps, (*bitmap).rNonImplication), ss.opts.Bitmaps)
}

// SupportedDistinct estimates F0^sup(A): distinct A-itemsets meeting the
// minimum-support condition.
func (ss *ShardedSketch) SupportedDistinct() float64 {
	ss.lockAll()
	defer ss.unlockAll()
	return ss.supportedDistinct()
}

func (ss *ShardedSketch) supportedDistinct() float64 {
	return fm.CorrectedEstimate(meanROver(ss.bitmaps(), ss.opts.Bitmaps, (*bitmap).rSupported), ss.opts.Bitmaps)
}

// DistinctCount estimates F0(A): all distinct A-itemsets seen, regardless of
// support.
func (ss *ShardedSketch) DistinctCount() float64 {
	ss.lockAll()
	defer ss.unlockAll()
	return ss.distinctCount()
}

func (ss *ShardedSketch) distinctCount() float64 {
	return fm.CorrectedEstimate(meanROver(ss.bitmaps(), ss.opts.Bitmaps, (*bitmap).rHashed), ss.opts.Bitmaps)
}

// AvgMultiplicity estimates the mean number of distinct B-partners over
// implicating itemsets; see Sketch.AvgMultiplicity.
func (ss *ShardedSketch) AvgMultiplicity() float64 {
	ss.lockAll()
	defer ss.unlockAll()
	return avgMultiplicityOver(ss.bitmaps(), ss.cond.MinSupport)
}

// MinEstimable returns the smallest non-implication count the bounded
// fringe can resolve, 2^−F · F0(A); see Sketch.MinEstimable.
func (ss *ShardedSketch) MinEstimable() float64 {
	if ss.opts.Unbounded {
		return 0
	}
	ss.lockAll()
	defer ss.unlockAll()
	return math.Exp2(-float64(ss.opts.FringeSize)) * ss.distinctCount()
}

// Tuples returns the number of tuples observed across all shards.
func (ss *ShardedSketch) Tuples() int64 {
	ss.lockAll()
	defer ss.unlockAll()
	var n int64
	for i := range ss.shards {
		n += ss.shards[i].sk.tuples
	}
	return n
}

// MemEntries returns the number of live counter entries across all shards —
// identical to the equivalent single sketch's footprint.
func (ss *ShardedSketch) MemEntries() int {
	ss.lockAll()
	defer ss.unlockAll()
	var n int
	for i := range ss.shards {
		n += ss.shards[i].sk.entries
	}
	return n
}

// PeakMemEntries returns the sum of the shards' high-water marks. Shards
// peak at independent moments, so this is an upper bound on (not an exact
// reproduction of) the peak a single sketch would have recorded.
func (ss *ShardedSketch) PeakMemEntries() int {
	ss.lockAll()
	defer ss.unlockAll()
	var n int
	for i := range ss.shards {
		n += ss.shards[i].sk.peak
	}
	return n
}

// Fringe returns current fringe occupancy statistics aggregated across
// shards.
func (ss *ShardedSketch) Fringe() FringeStats {
	ss.lockAll()
	defer ss.unlockAll()
	return fringeStatsOver(ss.bitmaps())
}

// Reset returns every shard to its freshly constructed state.
func (ss *ShardedSketch) Reset() {
	ss.lockAll()
	defer ss.unlockAll()
	for i := range ss.shards {
		ss.shards[i].sk.Reset()
	}
}

var _ imps.Estimator = (*ShardedSketch)(nil)
var _ imps.MultiplicityAverager = (*ShardedSketch)(nil)
var _ imps.HashedPartitionedAdder = (*ShardedSketch)(nil)
