package lossy

import (
	"fmt"
	"sort"
	"strings"

	"implicate/internal/imps"
)

// ILC is Implication Lossy Counting (§5.1): Lossy Counting extended to
// sample entries for both itemsets (a, support, Δ) and pairs
// ((a,b), support, Δ), with dirty marking for itemsets that met the
// minimum-support requirement but violated multiplicity or top-confidence.
//
// Two properties distinguish it from NIPS/CI, and the paper proves both are
// disqualifying for implication counts (§5.1.1): the minimum support must
// be RELATIVE to the evolving stream length (and exceed ε), so the
// cumulative effect of small implications is lost as the stream grows; and
// every dirty itemset stays in memory forever.
type ILC struct {
	cond imps.Conditions
	// RelSupport is s_rel, the relative minimum support; must exceed eps.
	relSupport float64
	eps        float64
	width      int64
	n          int64

	as    map[string]*ilcEntry
	pairs map[string]map[string]*entry
}

type ilcEntry struct {
	count int64
	delta int64
	dirty bool
}

// NewILC returns an ILC instance. relSupport is the relative minimum
// support (fraction of the stream); eps the approximation parameter, which
// must satisfy eps <= relSupport. The absolute MinSupport field of cond is
// ignored — that is precisely the limitation §5.1.1 establishes.
func NewILC(cond imps.Conditions, relSupport, eps float64) (*ILC, error) {
	if err := cond.Validate(); err != nil {
		return nil, err
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("lossy: eps must be in (0,1), got %g", eps)
	}
	if relSupport < eps || relSupport >= 1 {
		return nil, fmt.Errorf("lossy: relative support %g must be in [eps, 1)", relSupport)
	}
	return &ILC{
		cond:       cond,
		relSupport: relSupport,
		eps:        eps,
		width:      int64(1/eps + 0.5),
		as:         make(map[string]*ilcEntry),
		pairs:      make(map[string]map[string]*entry),
	}, nil
}

// MustILC is NewILC panicking on error.
func MustILC(cond imps.Conditions, relSupport, eps float64) *ILC {
	c, err := NewILC(cond, relSupport, eps)
	if err != nil {
		panic(err)
	}
	return c
}

// Add observes one tuple. Keys are cloned where they are retained: a and b
// may alias a whole batch buffer (imps.Estimator).
func (c *ILC) Add(a, b string) {
	c.n++
	bcur := (c.n-1)/c.width + 1

	ae := c.as[a]
	if ae == nil {
		ae = &ilcEntry{count: 1, delta: bcur - 1}
		c.as[strings.Clone(a)] = ae
	} else {
		ae.count++
	}

	if !ae.dirty {
		pm := c.pairs[a]
		if pm == nil {
			pm = make(map[string]*entry, 1)
			c.pairs[strings.Clone(a)] = pm
		}
		if pe := pm[b]; pe != nil {
			pe.count++
		} else {
			pm[strings.Clone(b)] = &entry{count: 1, delta: bcur - 1}
		}
		// Check the implication conditions once the (relative) minimum
		// support is met; on violation mark dirty and free the pairs
		// (§5.1: "mark the corresponding sample entry as dirty and delete
		// all the pair entries for that itemset").
		if c.meetsSupport(ae) && !c.satisfies(ae, pm) {
			ae.dirty = true
			delete(c.pairs, a)
		}
	}

	if c.n%c.width == 0 {
		c.prune(bcur)
	}
}

// meetsSupport applies the output rule of Lossy Counting to the itemset
// support: count ≥ (s_rel − ε)·N.
func (c *ILC) meetsSupport(ae *ilcEntry) bool {
	return float64(ae.count) >= (c.relSupport-c.eps)*float64(c.n)
}

// satisfies checks multiplicity and top-confidence against the tracked pair
// entries; pair counts are taken at their upper bound (count + Δ) so pruned
// prefixes do not trigger spurious violations.
//
// The query methods call satisfies too, and concurrent wrappers run them
// under a shared read lock, so it must not touch shared state: the counts
// are staged in a stack buffer (pm holds at most K+1 entries, so the buffer
// spills to the heap only for outsized K).
func (c *ILC) satisfies(ae *ilcEntry, pm map[string]*entry) bool {
	if len(pm) > c.cond.MaxMultiplicity {
		return false
	}
	var buf [8]int64
	scratch := buf[:0]
	for _, pe := range pm {
		scratch = append(scratch, pe.count+pe.delta)
	}
	return imps.TopConfidence(scratch, c.cond.TopC, ae.count) >= c.cond.MinTopConfidence
}

func (c *ILC) prune(bcur int64) {
	for a, ae := range c.as {
		if ae.dirty {
			continue // dirty entries are pinned forever (§5.1.1)
		}
		if ae.count+ae.delta <= bcur {
			delete(c.as, a)
			delete(c.pairs, a)
			continue
		}
		if pm := c.pairs[a]; pm != nil {
			for b, pe := range pm {
				if pe.count+pe.delta <= bcur {
					delete(pm, b)
				}
			}
		}
	}
}

// ImplicationCount counts the non-dirty itemsets that meet the relative
// support and still satisfy the implication conditions.
func (c *ILC) ImplicationCount() float64 {
	var s float64
	for a, ae := range c.as {
		if !ae.dirty && c.meetsSupport(ae) && c.satisfies(ae, c.pairs[a]) {
			s++
		}
	}
	return s
}

// NonImplicationCount counts the dirty itemsets.
func (c *ILC) NonImplicationCount() float64 {
	var s float64
	for _, ae := range c.as {
		if ae.dirty {
			s++
		}
	}
	return s
}

// SupportedDistinct counts itemsets meeting the relative support rule
// (dirty or not).
func (c *ILC) SupportedDistinct() float64 {
	var s float64
	for _, ae := range c.as {
		if ae.dirty || c.meetsSupport(ae) {
			s++
		}
	}
	return s
}

// AvgMultiplicity returns the mean number of tracked distinct B-partners
// over the itemsets currently counted.
func (c *ILC) AvgMultiplicity() float64 {
	var n, sum float64
	for a, ae := range c.as {
		if !ae.dirty && c.meetsSupport(ae) && c.satisfies(ae, c.pairs[a]) {
			n++
			sum += float64(len(c.pairs[a]))
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// Implicating returns the itemsets currently counted — the identification
// capability that distinguishes ILC from NIPS/CI, bought at the memory cost
// §5.1.1 quantifies.
func (c *ILC) Implicating() []string {
	var out []string
	for a, ae := range c.as {
		if !ae.dirty && c.meetsSupport(ae) && c.satisfies(ae, c.pairs[a]) {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// Tuples returns the number of tuples observed.
func (c *ILC) Tuples() int64 { return c.n }

// MemEntries reports live sample entries (itemsets plus pairs).
func (c *ILC) MemEntries() int {
	n := len(c.as)
	for _, pm := range c.pairs {
		n += len(pm)
	}
	return n
}

var _ imps.Estimator = (*ILC)(nil)
var _ imps.MultiplicityAverager = (*ILC)(nil)
