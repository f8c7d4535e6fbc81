package core

import (
	"fmt"
	"math"

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
// implication-count queries at any moment. It implements imps.Estimator.
//
// A Sketch is not safe for concurrent use.
type Sketch struct {
	cond   imps.Conditions
	opts   Options
	router xhash.Router
	ahash  xhash.Hash
	bhash  xhash.Hash
	bms    []bitmap

	counters
}

// counters is the bookkeeping Algorithm 1 keeps beside the bitmaps a writer
// updates. A Sketch has one set; a ShardedSketch keeps one per lock stripe
// and folds them into its Sketch before every read.
type counters struct {
	tuples  int64
	entries int // live counter entries across all cells
	peak    int // high-water mark of entries

	scratch []int64 // top-c selection buffer, reused across Adds
}

func newCounters(cond imps.Conditions) counters {
	// The scratch buffer grows on demand for outsized K.
	return counters{scratch: make([]int64, 0, min(cond.MaxMultiplicity+1, 64))}
}

// NewSketch returns a NIPS/CI sketch for the given implication conditions.
func NewSketch(cond imps.Conditions, opts Options) (*Sketch, error) {
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
	s := &Sketch{
		cond:     cond,
		opts:     opts,
		router:   router,
		ahash:    xhash.New(opts.Seed),
		bhash:    xhash.New(xhash.Mix(opts.Seed + 0x9e3779b97f4a7c15)),
		bms:      make([]bitmap, opts.Bitmaps),
		counters: newCounters(cond),
	}
	for i := range s.bms {
		s.bms[i].init()
	}
	return s, nil
}

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

// ConfigFingerprint identifies the sketch algorithm and its
// accuracy-relevant configuration; the seed is excluded (see
// imps.ConfigFingerprinter).
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

// AddHashed observes a tuple by the 64-bit hashes of its itemsets. Itemsets
// are identified by their full hash value from here on; a collision merges
// two itemsets, which perturbs counts with probability ~n²/2^64 — far below
// the sketch's probabilistic error.
func (s *Sketch) AddHashed(ah, bh uint64) {
	s.ingest(&s.counters, ah, bh)
}

// ingest routes one tuple to its bitmap and rank, counts it in ct and runs
// Algorithm 1 there. It writes no Sketch field but that bitmap, so writers
// with their own counters may run it concurrently on disjoint bitmaps.
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

// Tuples returns the number of tuples observed.
func (s *Sketch) Tuples() int64 { return s.tuples }

// MemEntries returns the number of live counter entries (a-support counters
// plus (a,b) pair counters) across all bitmaps — the footprint measure used
// in §4.6 and Table 5.
func (s *Sketch) MemEntries() int { return s.entries }

// PeakMemEntries returns the high-water mark of MemEntries over the
// sketch's lifetime. A Merge sums the inputs' marks, an upper bound on the
// peak one sketch fed the union would have recorded.
func (s *Sketch) PeakMemEntries() int { return s.peak }

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
func (s *Sketch) ImplicationCount() float64 {
	obs, mass := s.implicationSample()
	if mass <= 0 {
		return 0
	}
	return obs * float64(len(s.bms)) / mass
}

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
	obs, mass := s.implicationSample()
	if mass <= 0 {
		return 0, 0
	}
	m := float64(len(s.bms))
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
// total inclusion mass of the observable cells.
func (s *Sketch) implicationSample() (obs, mass float64) {
	for bi := range s.bms {
		b := &s.bms[bi]
		if b.hi < 0 {
			mass++
			continue
		}
		for j := b.lo; j <= b.hi; j++ {
			if b.dead[j] {
				continue
			}
			mass += math.Exp2(-float64(j + 1))
			if c := b.cells[j]; c != nil {
				obs += float64(c.nSupported)
			}
		}
		mass += math.Exp2(-float64(b.hi + 1))
	}
	return obs, mass
}

// CIImplicationCount is Algorithm 2 (CI): S = F0^sup(A) − ~S, the
// difference of the two position-based probabilistic counts with bias and
// small-range corrections applied to both terms, clamped at zero.
func (s *Sketch) CIImplicationCount() float64 {
	d := s.SupportedDistinct() - s.NonImplicationCount()
	if d < 0 {
		return 0
	}
	return d
}

// RawImplicationCount is Algorithm 2 with the paper's plain 2^R arithmetic
// (scaled across bitmaps, no small-range correction); exposed for the
// estimator ablation.
func (s *Sketch) RawImplicationCount() float64 {
	d := fm.RawEstimate(s.meanR((*bitmap).rSupported), len(s.bms)) -
		fm.RawEstimate(s.meanR((*bitmap).rNonImplication), len(s.bms))
	if d < 0 {
		return 0
	}
	return d
}

// NonImplicationCount estimates ~S: distinct A-itemsets that met the
// support condition but violated multiplicity or top-confidence.
func (s *Sketch) NonImplicationCount() float64 {
	return fm.CorrectedEstimate(s.meanR((*bitmap).rNonImplication), len(s.bms))
}

// SupportedDistinct estimates F0^sup(A): distinct A-itemsets meeting the
// minimum-support condition (§4.4 — read off the same bitmaps at no extra
// memory cost).
func (s *Sketch) SupportedDistinct() float64 {
	return fm.CorrectedEstimate(s.meanR((*bitmap).rSupported), len(s.bms))
}

// DistinctCount estimates F0(A): all distinct A-itemsets seen, regardless
// of support (the plain distinct-count statistic the framework
// generalizes).
func (s *Sketch) DistinctCount() float64 {
	return fm.CorrectedEstimate(s.meanR((*bitmap).rHashed), len(s.bms))
}

// AvgMultiplicity estimates the mean number of distinct B-partners over
// implicating itemsets (Table 2's complex-aggregate row) as the sample mean
// over the tracked supported itemsets — each is currently implying, and the
// fringe sample is a hash-uniform subset of the implicating population, so
// the plain mean is unbiased. Returns 0 when nothing qualifies.
func (s *Sketch) AvgMultiplicity() float64 {
	var n, sum float64
	for bi := range s.bms {
		b := &s.bms[bi]
		if b.hi < 0 {
			continue
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
					sum += float64(len(st.perB))
				}
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// MinEstimable returns the smallest non-implication count the bounded
// fringe can resolve, 2^−F · F0(A) (§4.3.3); smaller counts are clamped to
// it. For unbounded sketches it returns 0.
func (s *Sketch) MinEstimable() float64 {
	if s.opts.Unbounded {
		return 0
	}
	return math.Exp2(-float64(s.opts.FringeSize)) * s.DistinctCount()
}

// meanR averages a per-bitmap position reader over the bitmaps — the
// stochastic-averaging step of Algorithm 2.
func (s *Sketch) meanR(r func(*bitmap) int) float64 {
	var sum int
	for bi := range s.bms {
		sum += r(&s.bms[bi])
	}
	return float64(sum) / float64(len(s.bms))
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
	for i := range s.bms {
		s.bms[i] = bitmap{}
		s.bms[i].init()
	}
	s.tuples = 0
	s.entries = 0
	s.peak = 0
}

// Fringe returns current fringe occupancy statistics.
func (s *Sketch) Fringe() FringeStats {
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
