package core

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"implicate/internal/fm"
	"implicate/internal/imps"
	"implicate/internal/xhash"
)

// Levels is the number of cells per bitmap. With 64 cells the sketch can
// count up to 2^64 distinct itemsets, far beyond any compound cardinality
// the paper considers (IPv6 address spaces included).
const Levels = 64

// Default option values, matching the paper's experimental configuration
// (Table 5): 64 bitmaps, fringe size four, capacity slack two.
const (
	DefaultBitmaps    = 64
	DefaultFringeSize = 4
	DefaultSlack      = 2
)

// Options configure a Sketch. The zero value selects the paper defaults.
type Options struct {
	// Bitmaps is the number m of concurrently maintained bitmaps used for
	// stochastic averaging; it must be a power of two. Default 64.
	Bitmaps int
	// FringeSize is F, the bounded size of the floating fringe zone in
	// cells. Default 4. Ignored when Unbounded is set.
	FringeSize int
	// Unbounded disables fringe bounding: every cell from the least
	// significant up to the rightmost hashed one tracks its itemsets and
	// cells never overflow. This is the straightforward O(K·|A|) algorithm
	// of §4.2, kept as the reference the bounded fringe is compared against
	// (the "Unbounded Fringe" series of Figures 4–6).
	Unbounded bool
	// Slack multiplies the expected per-cell itemset capacity to absorb
	// hash-function unevenness (§4.3.2 suggests doubling). Default 2.
	Slack int
	// Seed selects the hash family members; two sketches with equal seeds
	// and options observe streams identically.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Bitmaps == 0 {
		o.Bitmaps = DefaultBitmaps
	}
	if o.FringeSize == 0 {
		o.FringeSize = DefaultFringeSize
	}
	if o.Slack == 0 {
		o.Slack = DefaultSlack
	}
	return o
}

// Sketch is the NIPS/CI estimator: it samples O(K) itemset pairs per bitmap,
// driven by the hash representation of the A-itemsets, and answers
// implication-count queries at any moment. It implements imps.Estimator and
// imps.HashedPartitionedAdder, and all its methods are safe for concurrent
// use.
//
// The stochastic-averaging router sends every tuple to one of the m bitmaps
// by the low bits of its A-itemset hash, so the bitmaps sit behind n lock
// stripes with no cross-stripe coordination on the write path: concurrent
// producers contend only when their tuples hash to the same stripe, and
// AddHashedPairs takes each stripe lock once per batch. Every reader, Merge,
// MarshalBinary and Reset holds every stripe lock, a serializable cut that
// includes every Add that returned before it began. The stripe count is not
// state: schedules that deliver the same per-bitmap tuple order leave
// bit-identical state at any count, except for the entry high-water mark,
// which depends on how adds to different stripes interleave, so one stripe
// records it exactly and several report the live entry count instead.
type Sketch struct {
	cond   imps.Conditions
	opts   Options
	router xhash.Router
	ahash  xhash.Hash
	bhash  xhash.Hash
	bms    []bitmap

	id      uint64 // orders the lock acquisition of two sketches in Merge
	mask    uint64 // len(stripes)-1: a tuple's stripe is ah & mask
	stripes []stripe
}

// stripe guards the bitmaps whose index is congruent to its own modulo the
// stripe count, and counts the adds to them with its own top-c scratch.
// Only the sums over all stripes are read, so a decode or a merge books its
// whole count on stripe 0. The padding keeps neighbouring stripes off one
// cache line.
type stripe struct {
	mu sync.Mutex
	counters
	_ [64 - (unsafe.Sizeof(sync.Mutex{})+unsafe.Sizeof(counters{}))%64]byte
}

// counters is the bookkeeping Algorithm 1 keeps beside the bitmaps a writer
// updates, one set per stripe.
type counters struct {
	tuples  int64
	entries int // live counter entries the stripe's writes added, net
	peak    int // high-water mark of entries; kept by a lone stripe only

	scratch []int64 // top-c selection buffer, reused across Adds
}

// sketchIDs numbers sketches for Merge's lock order.
var sketchIDs atomic.Uint64

// NewSketch returns a NIPS/CI sketch with one lock stripe for the given
// implication conditions.
func NewSketch(cond imps.Conditions, opts Options) (*Sketch, error) {
	return NewShardedSketch(cond, opts, 1)
}

// NewShardedSketch returns a NIPS/CI sketch whose bitmaps are guarded by
// the given number of lock stripes. shards must be a power of two no larger
// than the bitmap count m; shards == 0 selects GOMAXPROCS rounded down to a
// power of two (capped at m). The result answers every query a same-seed
// one-stripe sketch would, bit for bit.
func NewShardedSketch(cond imps.Conditions, opts Options, shards int) (*Sketch, error) {
	if err := cond.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.FringeSize < 1 || opts.FringeSize > Levels {
		return nil, fmt.Errorf("core: fringe size %d out of range [1,%d]", opts.FringeSize, Levels)
	}
	if opts.Slack < 1 {
		return nil, fmt.Errorf("core: slack %d must be >= 1", opts.Slack)
	}
	router, err := xhash.NewRouter(opts.Bitmaps)
	if err != nil {
		return nil, err
	}
	if shards == 0 {
		shards = min(procShards(), opts.Bitmaps)
	}
	if shards < 1 || shards&(shards-1) != 0 || shards > opts.Bitmaps {
		return nil, fmt.Errorf("core: shard count %d must be a power of two no larger than the bitmap count %d", shards, opts.Bitmaps)
	}
	s := &Sketch{
		cond:    cond,
		opts:    opts,
		router:  router,
		ahash:   xhash.New(opts.Seed),
		bhash:   xhash.New(xhash.Mix(opts.Seed + 0x9e3779b97f4a7c15)),
		bms:     make([]bitmap, opts.Bitmaps),
		id:      sketchIDs.Add(1),
		mask:    uint64(shards - 1),
		stripes: make([]stripe, shards),
	}
	for i := range s.bms {
		s.bms[i].init()
	}
	for i := range s.stripes {
		// The scratch buffer grows on demand for outsized K.
		s.stripes[i].scratch = make([]int64, 0, min(cond.MaxMultiplicity+1, 64))
	}
	return s, nil
}

// procShards is GOMAXPROCS rounded down to a power of two.
func procShards() int { return 1 << (bits.Len(uint(runtime.GOMAXPROCS(0))) - 1) }

// MustSketch is NewSketch for statically known parameters; it panics on
// error.
func MustSketch(cond imps.Conditions, opts Options) *Sketch {
	s, err := NewSketch(cond, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Conditions returns the implication conditions the sketch enforces.
func (s *Sketch) Conditions() imps.Conditions { return s.cond }

// Options returns the effective (defaulted) options.
func (s *Sketch) Options() Options { return s.opts }

// Shards returns the lock stripe count.
func (s *Sketch) Shards() int { return len(s.stripes) }

// ConfigFingerprint identifies the sketch algorithm and its
// accuracy-relevant configuration; the seed and the stripe count are
// excluded (see imps.ConfigFingerprinter).
func (s *Sketch) ConfigFingerprint() string {
	return fmt.Sprintf("nips(%s|m=%d,F=%d,unbounded=%t,slack=%d)",
		s.cond, s.opts.Bitmaps, s.opts.FringeSize, s.opts.Unbounded, s.opts.Slack)
}

// Add observes one tuple: a is the encoded A-itemset, b the encoded
// B-itemset.
func (s *Sketch) Add(a, b string) {
	s.AddHashed(s.ahash.Sum(a), s.bhash.Sum(b))
}

// AddIDs observes a tuple whose itemsets are identified by integers, the
// fast path for synthetic workloads.
func (s *Sketch) AddIDs(a, b uint64) {
	s.AddHashed(s.ahash.SumUint64(a), s.bhash.SumUint64(b))
}

// AddHashed observes a tuple by the 64-bit hashes of its itemsets, locking
// only the stripe that guards the tuple's bitmap. Itemsets are identified
// by their full hash value from here on; a collision merges two itemsets,
// which perturbs counts with probability ~n²/2^64 — far below the sketch's
// probabilistic error.
func (s *Sketch) AddHashed(ah, bh uint64) {
	st := &s.stripes[ah&s.mask]
	st.mu.Lock()
	s.ingest(&st.counters, ah, bh)
	st.mu.Unlock()
}

// HashPairKeys implements imps.HashedPartitionedAdder: the sketch's own
// seeded hashes of a pair, which producers compute without any lock.
func (s *Sketch) HashPairKeys(a, b string) (ah, bh uint64) {
	return s.ahash.Sum(a), s.bhash.Sum(b)
}

// IngestPartitionHashed implements imps.HashedPartitionedAdder. A key's
// partition is the low bits of its A-hash — the bits that pick its bitmap
// and its stripe — clamped to the stripe count so that two workers never
// share a stripe lock. Partition p under 2n splits into {p, p+n} under n,
// so any power-of-two pool size yields the same per-bitmap order.
func (s *Sketch) IngestPartitionHashed(ah uint64, n int) int {
	n = min(n, len(s.stripes))
	return int(ah & uint64(n-1))
}

// AddHashedPairs ingests pairs hashed by HashPairKeys, ignoring their keys,
// and takes each stripe lock at most once for the whole slice.
func (s *Sketch) AddHashedPairs(pairs []imps.HashedPair) {
	for si := range s.stripes {
		st := &s.stripes[si]
		locked := false
		for i := range pairs {
			if int(pairs[i].AH&s.mask) != si {
				continue
			}
			if !locked {
				st.mu.Lock()
				locked = true
			}
			s.ingest(&st.counters, pairs[i].AH, pairs[i].BH)
		}
		if locked {
			st.mu.Unlock()
		}
	}
}

// ingest routes one tuple to its bitmap and rank, counts it in ct and runs
// Algorithm 1 there. It writes no Sketch field but that bitmap, so the
// holders of distinct stripe locks run it concurrently.
func (s *Sketch) ingest(ct *counters, ah, bh uint64) {
	bm, rank := s.router.Route(ah)
	if rank >= Levels {
		rank = Levels - 1
	}
	ct.tuples++
	s.add(ct, &s.bms[bm], rank, ah, bh)
}

// BitmapOf returns the bitmap Add(string(key), b) updates: the split that
// lets same-seed sketches merge back to one sketch's state (see Merge).
func (s *Sketch) BitmapOf(key []byte) int {
	bm, _ := s.router.Route(s.ahash.SumBytes(key))
	return bm
}

func (s *Sketch) lockAll() {
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
}

func (s *Sketch) unlockAll() {
	for i := range s.stripes {
		s.stripes[i].mu.Unlock()
	}
}

// counts sums the stripes' counters; the caller holds every stripe lock. A
// lone stripe keeps the exact entry high-water mark, while the marks of
// several stripes do not add up, so peak is then the live entry count.
func (s *Sketch) counts() (c counters) {
	for i := range s.stripes {
		c.tuples += s.stripes[i].tuples
		c.entries += s.stripes[i].entries
	}
	c.peak = c.entries
	if len(s.stripes) == 1 {
		c.peak = s.stripes[0].peak
	}
	return c
}

// total is counts under every stripe lock.
func (s *Sketch) total() counters {
	s.lockAll()
	defer s.unlockAll()
	return s.counts()
}

// read returns the fold f of the sketch's terms under every stripe lock: a
// serializable cut that includes every Add that returned before the call.
func read[T any](s *Sketch, f func(terms) T) T {
	s.lockAll()
	defer s.unlockAll()
	return f(s)
}

// Tuples returns the number of tuples observed.
func (s *Sketch) Tuples() int64 { return s.total().tuples }

// MemEntries returns the number of live counter entries (a-support counters
// plus (a,b) pair counters) across all bitmaps — the footprint measure used
// in §4.6 and Table 5.
func (s *Sketch) MemEntries() int { return s.total().entries }

// PeakMemEntries returns the high-water mark of MemEntries over the
// sketch's lifetime: exact for one stripe, the live entry count for
// several. A Merge sums the inputs' marks, an upper bound on the peak one
// sketch fed the union would have recorded.
func (s *Sketch) PeakMemEntries() int { return s.total().peak }

// ImplicationCount estimates S, the number of distinct A-itemsets implying
// B.
//
// It reads the fringe as what it structurally is: a hash-driven distinct
// sample with known inclusion probabilities. An itemset whose hash ranks it
// into cell j of one of the m bitmaps is tracked there with probability
// (1/m)·2^−(j+1), and a tracked supported itemset is necessarily implying —
// had it violated a condition, its whole cell would have turned to one on
// the spot. Summing the supported census of every live fringe cell and
// dividing by the total inclusion mass of those cells gives a
// Horvitz–Thompson estimate of S whose error stays proportional to S
// itself. The paper's Algorithm 2 (the difference of two probabilistic
// counts) is kept as CIImplicationCount; its error is proportional to
// F0^sup(A) instead and therefore explodes for small S/F0 ratios (§4.7.2
// concedes this). The experiment harness compares both.
func (s *Sketch) ImplicationCount() float64 { return read(s, implicationCount) }

// ImplicationCountInterval returns an approximate confidence interval
// around ImplicationCount at z standard errors (z=2 covers roughly 95% in
// the Gaussian approximation). Two variance sources combine in quadrature:
// the Poisson-like noise of the fringe sample's implication census (which
// dominates when few implications are tracked), and the per-bitmap
// hash-placement variance of stochastic averaging (which dominates when
// the census is large — the same ~1/√m law as every FM-family sketch).
// The interval is clamped at zero. An empty sketch returns a small
// non-degenerate interval — having seen nothing, it cannot rule out small
// counts.
func (s *Sketch) ImplicationCountInterval(z float64) (lo, hi float64) {
	s.lockAll()
	defer s.unlockAll()
	return implicationCountInterval(s, z)
}

// CIImplicationCount is Algorithm 2 (CI): S = F0^sup(A) − ~S, the
// difference of the two position-based probabilistic counts with bias and
// small-range corrections applied to both terms, clamped at zero.
func (s *Sketch) CIImplicationCount() float64 { return read(s, ciImplicationCount) }

// RawImplicationCount is Algorithm 2 with the paper's plain 2^R arithmetic
// (scaled across bitmaps, no small-range correction); exposed for the
// estimator ablation.
func (s *Sketch) RawImplicationCount() float64 { return read(s, rawImplicationCount) }

// NonImplicationCount estimates ~S: distinct A-itemsets that met the
// support condition but violated multiplicity or top-confidence.
func (s *Sketch) NonImplicationCount() float64 { return read(s, nonImplicationCount) }

// SupportedDistinct estimates F0^sup(A): distinct A-itemsets meeting the
// minimum-support condition (§4.4 — read off the same bitmaps at no extra
// memory cost).
func (s *Sketch) SupportedDistinct() float64 { return read(s, supportedDistinct) }

// DistinctCount estimates F0(A): all distinct A-itemsets seen, regardless
// of support (the plain distinct-count statistic the framework
// generalizes).
func (s *Sketch) DistinctCount() float64 { return read(s, distinctCount) }

// AvgMultiplicity estimates the mean number of distinct B-partners over
// implicating itemsets (Table 2's complex-aggregate row) as the sample mean
// over the tracked supported itemsets — each is currently implying, and the
// fringe sample is a hash-uniform subset of the implicating population, so
// the plain mean is unbiased. Returns 0 when nothing qualifies.
func (s *Sketch) AvgMultiplicity() float64 { return read(s, avgMultiplicity) }

// MinEstimable returns the smallest non-implication count the bounded
// fringe can resolve, 2^−F · F0(A) (§4.3.3); smaller counts are clamped to
// it. For unbounded sketches it returns 0.
func (s *Sketch) MinEstimable() float64 {
	if s.opts.Unbounded {
		return 0
	}
	return math.Exp2(-float64(s.opts.FringeSize)) * s.DistinctCount()
}

// The readers above are folds over per-bitmap terms, written once below
// against terms. A Sketch derives each term from its bitmap on demand; a
// Readout (readout.go) holds the terms other sketches derived and shipped.
// Every term is an integer or a cell position, so two sources holding equal
// terms answer bit for bit alike.

// terms is the per-bitmap input of the estimator folds.
type terms interface {
	// bitmaps returns m, the number of bitmaps folded over.
	bitmaps() int
	// fringe returns bitmap i's fringe bounds (hi < 0 before its first
	// tuple), its dead cells in [lo, hi] as a mask (bit j for cell j), and
	// its implication census: Σ nSupported over its live fringe cells.
	fringe(i int) (lo, hi int, dead uint64, census int64)
	// positionSum returns the sum over the bitmaps of one R position.
	positionSum(k position) int
	// multiplicity returns the number of tracked supported itemsets over
	// the bitmaps and the sum of their B-partner counts.
	multiplicity() (n, sum int64)
}

// position names one of Algorithm 2's per-bitmap R positions.
type position uint8

const (
	posSupported position = iota
	posNonImplication
	posHashed
	numPositions
)

// positionOf reads each position off a bitmap.
var positionOf = [numPositions]func(*bitmap) int{
	posSupported:      (*bitmap).rSupported,
	posNonImplication: (*bitmap).rNonImplication,
	posHashed:         (*bitmap).rHashed,
}

// cellMass[j] is 2^−(j+1), the inclusion mass of cell j: the exact power of
// two math.Exp2 returns for it, precomputed.
var cellMass = func() (t [Levels]float64) {
	for j := range t {
		t[j] = math.Ldexp(1, -(j + 1))
	}
	return t
}()

func implicationCount(t terms) float64 {
	obs, mass := implicationSample(t)
	if mass <= 0 {
		return 0
	}
	return obs * float64(t.bitmaps()) / mass
}

func implicationCountInterval(t terms, z float64) (lo, hi float64) {
	obs, mass := implicationSample(t)
	if mass <= 0 {
		return 0, 0
	}
	m := float64(t.bitmaps())
	factor := m / mass
	est := obs * factor
	census := math.Sqrt(obs+1) * factor // +1 keeps zero-census intervals honest
	placement := est / math.Sqrt(m)
	stderr := math.Sqrt(census*census + placement*placement)
	lo = est - z*stderr
	if lo < 0 {
		lo = 0
	}
	return lo, est + z*stderr
}

// implicationSample returns the fringe sample's implication census and the
// total inclusion mass of the observable cells. The mass is summed in
// bitmap order and cell order within a bitmap, whatever the source, so it
// rounds identically everywhere; the census is an integer sum and exact.
func implicationSample(t terms) (obs, mass float64) {
	for i := range t.bitmaps() {
		lo, hi, dead, census := t.fringe(i)
		if hi < 0 {
			mass++
			continue
		}
		for j := lo; j <= hi; j++ {
			if dead>>uint(j)&1 == 0 {
				mass += cellMass[j]
			}
		}
		mass += cellMass[hi]
		obs += float64(census)
	}
	return obs, mass
}

// positionCount is the corrected probabilistic count of one R position.
func positionCount(t terms, k position) float64 {
	return fm.CorrectedEstimate(meanR(t, k), t.bitmaps())
}

func nonImplicationCount(t terms) float64 { return positionCount(t, posNonImplication) }
func supportedDistinct(t terms) float64   { return positionCount(t, posSupported) }
func distinctCount(t terms) float64       { return positionCount(t, posHashed) }

func ciImplicationCount(t terms) float64 {
	d := supportedDistinct(t) - nonImplicationCount(t)
	if d < 0 {
		return 0
	}
	return d
}

func rawImplicationCount(t terms) float64 {
	d := fm.RawEstimate(meanR(t, posSupported), t.bitmaps()) -
		fm.RawEstimate(meanR(t, posNonImplication), t.bitmaps())
	if d < 0 {
		return 0
	}
	return d
}

// meanR averages one R position over the bitmaps — the
// stochastic-averaging step of Algorithm 2.
func meanR(t terms, k position) float64 {
	return float64(t.positionSum(k)) / float64(t.bitmaps())
}

func avgMultiplicity(t terms) float64 {
	n, sum := t.multiplicity()
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func (s *Sketch) bitmaps() int { return len(s.bms) }

func (s *Sketch) fringe(i int) (lo, hi int, dead uint64, census int64) {
	b := &s.bms[i]
	for j := b.lo; j <= b.hi; j++ {
		if b.dead[j] {
			dead |= 1 << uint(j)
		} else if c := b.cells[j]; c != nil {
			census += int64(c.nSupported)
		}
	}
	return b.lo, b.hi, dead, census
}

func (s *Sketch) positionSum(k position) (sum int) {
	r := positionOf[k]
	for i := range s.bms {
		sum += r(&s.bms[i])
	}
	return sum
}

func (s *Sketch) multiplicity() (n, sum int64) {
	for i := range s.bms {
		bn, bsum := s.multiplicityOf(&s.bms[i])
		n += bn
		sum += bsum
	}
	return n, sum
}

// multiplicityOf returns the number of b's tracked supported itemsets and
// the sum of their B-partner counts.
func (s *Sketch) multiplicityOf(b *bitmap) (n, sum int64) {
	if b.hi < 0 {
		return 0, 0
	}
	for j := b.lo; j <= b.hi; j++ {
		c := b.cells[j]
		if b.dead[j] || c == nil || c.suppOnly {
			continue
		}
		for k := range c.items {
			st := &c.items[k].st
			if !st.excluded && st.supp >= s.cond.MinSupport {
				n++
				sum += int64(len(st.perB))
			}
		}
	}
	return n, sum
}

// FringeStats describes the occupancy of the floating fringes, used by the
// Lemma 2 validation bench.
type FringeStats struct {
	// TrackedItemsets is the number of A-itemsets currently tracked in
	// fringe or support-only cells across all bitmaps.
	TrackedItemsets int
	// PairCounters is the number of live (a,b) counters.
	PairCounters int
	// Tombstones is the number of excluded-itemset markers held in live
	// cells.
	Tombstones int
	// MaxFringeWidth is the widest live fringe (hi−lo+1) across bitmaps.
	MaxFringeWidth int
	// Overflows counts cells forced to one because their capacity was
	// exhausted.
	Overflows int
}

// Reset returns the sketch to its freshly constructed state (same
// conditions, options and seed), releasing all tracking memory. Sliding
// windows and pooled estimators can recycle sketches instead of allocating
// new ones.
func (s *Sketch) Reset() {
	s.lockAll()
	defer s.unlockAll()
	for i := range s.bms {
		s.bms[i] = bitmap{}
		s.bms[i].init()
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.tuples, st.entries, st.peak = 0, 0, 0
	}
}

// Fringe returns current fringe occupancy statistics.
func (s *Sketch) Fringe() FringeStats {
	s.lockAll()
	defer s.unlockAll()
	return s.fringeStats()
}

// fringeStats is Fringe; the caller holds every stripe lock.
func (s *Sketch) fringeStats() FringeStats {
	var st FringeStats
	for bi := range s.bms {
		b := &s.bms[bi]
		if b.hi >= 0 {
			if w := b.hi - b.lo + 1; w > st.MaxFringeWidth {
				st.MaxFringeWidth = w
			}
		}
		st.Overflows += b.overflows
		for _, c := range b.cells {
			if c == nil {
				continue
			}
			st.TrackedItemsets += len(c.items) - c.nExcluded
			st.Tombstones += c.nExcluded
			for j := range c.items {
				st.PairCounters += len(c.items[j].st.perB)
			}
		}
	}
	return st
}

var _ imps.Estimator = (*Sketch)(nil)
var _ imps.MultiplicityAverager = (*Sketch)(nil)
var _ imps.HashedPartitionedAdder = (*Sketch)(nil)
