package lossy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"implicate/internal/imps"
)

// Sticky is the Sticky Sampling algorithm of Manku & Motwani (VLDB 2002):
// a probabilistic counting sample whose sampling rate halves as the stream
// doubles, guaranteeing (ε, δ) frequency estimates with expected
// 2/ε·log(1/(s·δ)) entries independent of the stream length.
type Sticky struct {
	eps     float64
	t       float64 // 1/ε · log(1/(s·δ))
	rate    int64   // current sampling rate r: each arrival sampled w.p. 1/r
	limit   int64   // stream position at which the rate doubles next
	n       int64
	entries map[string]int64
	rng     *rand.Rand
}

// NewSticky returns a Sticky sampler for support s, approximation eps and
// failure probability delta, using the given deterministic seed.
func NewSticky(s, eps, delta float64, seed int64) (*Sticky, error) {
	if eps <= 0 || eps >= 1 || s <= eps || s >= 1 || delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("lossy: invalid sticky parameters s=%g eps=%g delta=%g", s, eps, delta)
	}
	t := 1 / eps * math.Log(1/(s*delta))
	return &Sticky{
		eps:     eps,
		t:       t,
		rate:    1,
		limit:   int64(2 * t),
		entries: make(map[string]int64),
		rng:     rand.New(rand.NewSource(seed)),
	}, nil
}

// MustSticky is NewSticky panicking on error.
func MustSticky(s, eps, delta float64, seed int64) *Sticky {
	st, err := NewSticky(s, eps, delta, seed)
	if err != nil {
		panic(err)
	}
	return st
}

// Add observes one item.
func (s *Sticky) Add(item string) {
	s.n++
	if s.n > s.limit {
		// The rate doubles; every existing entry repeatedly loses an
		// unbiased coin toss and is decremented until a toss succeeds.
		s.rate *= 2
		s.limit *= 2
		// Toss in key order, not map order: which entry draws which coin
		// must be a function of the seed for two same-seed runs to agree.
		items := make([]string, 0, len(s.entries))
		for it := range s.entries {
			items = append(items, it)
		}
		sort.Strings(items)
		for _, it := range items {
			cnt := s.entries[it]
			for cnt > 0 && s.rng.Intn(2) == 0 {
				cnt--
			}
			if cnt == 0 {
				delete(s.entries, it)
			} else {
				s.entries[it] = cnt
			}
		}
	}
	if _, ok := s.entries[item]; ok {
		s.entries[item]++
		return
	}
	if s.rng.Int63n(s.rate) == 0 {
		// The key is retained: copy it, it may alias a whole batch buffer.
		s.entries[strings.Clone(item)] = 1
	}
}

// N returns the number of items observed.
func (s *Sticky) N() int64 { return s.n }

// Entries returns the number of live sample entries.
func (s *Sticky) Entries() int { return len(s.entries) }

// Count returns the tracked count of item.
func (s *Sticky) Count(item string) int64 { return s.entries[item] }

// Frequent returns the items with estimated frequency at least (sup−ε)·N,
// sorted.
func (s *Sticky) Frequent(sup float64) []string {
	threshold := (sup - s.eps) * float64(s.n)
	var out []string
	for item, cnt := range s.entries {
		if float64(cnt) >= threshold {
			out = append(out, item)
		}
	}
	sort.Strings(out)
	return out
}

// ImplicationSticky extends Sticky Sampling with the same dirty-marking
// scheme as ILC (§5.1 notes the extension is possible and inherits the same
// relative-support limitation). Itemset entries are admitted by the sticky
// sampling coin; pair counters are kept per sampled itemset.
type ImplicationSticky struct {
	cond       imps.Conditions
	relSupport float64
	inner      *Sticky
	dirty      map[string]bool
	pairs      map[string]map[string]int64
}

// NewImplicationSticky returns the implication extension of Sticky Sampling.
func NewImplicationSticky(cond imps.Conditions, relSupport, eps, delta float64, seed int64) (*ImplicationSticky, error) {
	if err := cond.Validate(); err != nil {
		return nil, err
	}
	inner, err := NewSticky(relSupport, eps, delta, seed)
	if err != nil {
		return nil, err
	}
	return &ImplicationSticky{
		cond:       cond,
		relSupport: relSupport,
		inner:      inner,
		dirty:      make(map[string]bool),
		pairs:      make(map[string]map[string]int64),
	}, nil
}

// Add observes one tuple.
func (s *ImplicationSticky) Add(a, b string) {
	s.inner.Add(a)
	cnt, sampled := s.inner.entries[a]
	if !sampled {
		delete(s.pairs, a) // the entry was evicted during a rate change
		return
	}
	if s.dirty[a] {
		return
	}
	pm := s.pairs[a]
	if pm == nil {
		pm = make(map[string]int64, 1)
		s.pairs[strings.Clone(a)] = pm
	}
	if n, ok := pm[b]; ok {
		pm[b] = n + 1
	} else {
		pm[strings.Clone(b)] = 1
	}
	if float64(cnt) >= (s.relSupport-s.inner.eps)*float64(s.inner.n) && !s.satisfies(cnt, pm) {
		s.dirty[strings.Clone(a)] = true
		delete(s.pairs, a)
	}
}

// satisfies is called from ImplicationCount as well as the add path; like
// ILC.satisfies it stages the counts on the stack so queries stay read-only
// under a shared read lock.
func (s *ImplicationSticky) satisfies(cnt int64, pm map[string]int64) bool {
	if len(pm) > s.cond.MaxMultiplicity {
		return false
	}
	var buf [8]int64
	scratch := buf[:0]
	for _, v := range pm {
		scratch = append(scratch, v)
	}
	return imps.TopConfidence(scratch, s.cond.TopC, cnt) >= s.cond.MinTopConfidence
}

// ImplicationCount counts sampled itemsets that meet the relative support
// and satisfy the conditions.
func (s *ImplicationSticky) ImplicationCount() float64 {
	threshold := (s.relSupport - s.inner.eps) * float64(s.inner.n)
	var out float64
	for a, cnt := range s.inner.entries {
		if s.dirty[a] || float64(cnt) < threshold {
			continue
		}
		if s.satisfies(cnt, s.pairs[a]) {
			out++
		}
	}
	return out
}

// NonImplicationCount counts dirty itemsets.
func (s *ImplicationSticky) NonImplicationCount() float64 { return float64(len(s.dirty)) }

// SupportedDistinct counts itemsets meeting the relative support rule.
func (s *ImplicationSticky) SupportedDistinct() float64 {
	threshold := (s.relSupport - s.inner.eps) * float64(s.inner.n)
	var out float64
	for a, cnt := range s.inner.entries {
		if s.dirty[a] || float64(cnt) >= threshold {
			out++
		}
	}
	return out
}

// Tuples returns the number of tuples observed.
func (s *ImplicationSticky) Tuples() int64 { return s.inner.n }

// MemEntries reports live entries (itemsets, dirty marks, and pairs).
func (s *ImplicationSticky) MemEntries() int {
	n := len(s.inner.entries) + len(s.dirty)
	for _, pm := range s.pairs {
		n += len(pm)
	}
	return n
}

var _ imps.Estimator = (*ImplicationSticky)(nil)
