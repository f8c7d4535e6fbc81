// Package dsample implements Distinct Sampling (Gibbons, VLDB 2001) — the
// hash-based distinct-value sampler the paper compares NIPS/CI against in
// §6.2 — together with its adaptation to implication counting.
//
// Distinct Sampling maintains a uniform sample of the DISTINCT values of a
// stream: a value enters the sample when the position of the least
// significant 1-bit of its hash is at least the current level l, so each
// distinct value is sampled with probability 2^−l regardless of how often
// it appears. When the sample outgrows its space budget the level rises and
// entries below it are evicted. Distinct-count queries scale the sample by
// 2^l; the implication adaptation evaluates the implication conditions
// exactly on the sampled itemsets (keeping up to t tuple records per
// sampled value, Gibbons' per-value bound) and scales the qualifying count.
// The weakness the paper demonstrates: sampled itemsets are chosen by hash
// only, so with selective conditions few of them qualify and the scaled
// estimate becomes erratic.
package dsample

import (
	"fmt"
	"strings"

	"implicate/internal/imps"
	"implicate/internal/xhash"
)

// Sketch is the implication-counting adaptation of Distinct Sampling. It
// implements imps.Estimator. Not safe for concurrent use.
type Sketch struct {
	cond imps.Conditions
	// size is the total entry budget (itemset entries plus pair counters),
	// matching the paper's like-for-like memory comparison (Table 5: 1920).
	size int
	// t bounds the tracked tuples per sampled value (Gibbons' bound
	// parameter; Table 5 uses t=39).
	t int

	hash    xhash.Hash
	level   int
	sample  map[string]*val
	entries int
	tuples  int64
	scratch []int64
}

type val struct {
	rank int
	supp int64
	out  bool // violated the conditions after meeting the minimum support
	// capped marks a value whose per-pair tracking hit the t bound; its
	// condition checks are then frozen (the sampler can no longer evaluate
	// them faithfully).
	capped bool
	perB   map[string]int64
}

// New returns a Distinct Sampling implication estimator with the given
// total entry budget, per-value bound t, and hash seed.
func New(cond imps.Conditions, size, t int, seed uint64) (*Sketch, error) {
	if err := cond.Validate(); err != nil {
		return nil, err
	}
	if size < 2 {
		return nil, fmt.Errorf("dsample: size %d too small", size)
	}
	if t < 1 {
		return nil, fmt.Errorf("dsample: per-value bound t=%d must be >= 1", t)
	}
	return &Sketch{
		cond:    cond,
		size:    size,
		t:       t,
		hash:    xhash.New(seed),
		sample:  make(map[string]*val),
		scratch: make([]int64, 0, 8),
	}, nil
}

// Must is New panicking on error.
func Must(cond imps.Conditions, size, t int, seed uint64) *Sketch {
	s, err := New(cond, size, t, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Add observes one tuple.
func (s *Sketch) Add(a, b string) {
	s.tuples++
	rank := xhash.Rank(s.hash.Sum(a))
	if rank < s.level {
		return
	}
	v := s.sample[a]
	if v == nil {
		v = &val{rank: rank, perB: make(map[string]int64, 1)}
		// Retained keys are copied: a and b may alias a whole batch buffer.
		s.sample[strings.Clone(a)] = v
		s.entries++
	}
	v.supp++
	if !v.out && !v.capped {
		if cnt, seen := v.perB[b]; seen {
			v.perB[b] = cnt + 1
		} else if len(v.perB) >= s.t {
			// Gibbons' per-value budget is exhausted: condition evaluation
			// for this value is frozen.
			v.capped = true
		} else {
			v.perB[strings.Clone(b)] = 1
			s.entries++
		}
	}
	if !v.out && v.supp >= s.cond.MinSupport {
		if len(v.perB) > s.cond.MaxMultiplicity || s.topConfidence(v) < s.cond.MinTopConfidence {
			v.out = true
			s.entries -= len(v.perB)
			v.perB = nil
		}
	}
	for s.entries > s.size {
		s.raiseLevel()
	}
}

func (s *Sketch) topConfidence(v *val) float64 {
	s.scratch = s.scratch[:0]
	for _, c := range v.perB {
		s.scratch = append(s.scratch, c)
	}
	return imps.TopConfidence(s.scratch, s.cond.TopC, v.supp)
}

func (s *Sketch) raiseLevel() {
	s.level++
	for a, v := range s.sample {
		if v.rank < s.level {
			s.entries -= 1 + len(v.perB)
			delete(s.sample, a)
		}
	}
}

// scale is the inverse sampling probability 2^level.
func (s *Sketch) scale() float64 { return float64(int64(1) << uint(s.level)) }

// ImplicationCount scales the number of sampled itemsets currently
// satisfying the implication conditions.
func (s *Sketch) ImplicationCount() float64 {
	var n float64
	for _, v := range s.sample {
		if !v.out && v.supp >= s.cond.MinSupport {
			n++
		}
	}
	return n * s.scale()
}

// NonImplicationCount scales the number of sampled itemsets that violated
// the conditions after meeting the minimum support.
func (s *Sketch) NonImplicationCount() float64 {
	var n float64
	for _, v := range s.sample {
		if v.out {
			n++
		}
	}
	return n * s.scale()
}

// SupportedDistinct scales the number of sampled itemsets meeting the
// minimum support.
func (s *Sketch) SupportedDistinct() float64 {
	var n float64
	for _, v := range s.sample {
		if v.supp >= s.cond.MinSupport {
			n++
		}
	}
	return n * s.scale()
}

// AvgMultiplicity returns the mean number of distinct B-partners over the
// sampled itemsets currently satisfying the conditions (sample mean; the
// sample is hash-uniform over distinct values).
func (s *Sketch) AvgMultiplicity() float64 {
	var n, sum float64
	for _, v := range s.sample {
		if !v.out && v.supp >= s.cond.MinSupport {
			n++
			sum += float64(len(v.perB))
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// DistinctCount is Gibbons' original query: the scaled sample size.
func (s *Sketch) DistinctCount() float64 {
	return float64(len(s.sample)) * s.scale()
}

// Level returns the current sampling level.
func (s *Sketch) Level() int { return s.level }

// Tuples returns the number of tuples observed.
func (s *Sketch) Tuples() int64 { return s.tuples }

// MemEntries reports live entries (itemset records plus pair counters).
func (s *Sketch) MemEntries() int { return s.entries }

var _ imps.Estimator = (*Sketch)(nil)
var _ imps.MultiplicityAverager = (*Sketch)(nil)
