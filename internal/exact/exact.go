// Package exact implements the exact implication counter the paper uses as
// ground truth in §6: plain hash tables over every distinct A-itemset and
// its B-partners, applying the same streaming semantics as the sketches —
// an itemset that, at any point after reaching the minimum support, fails
// the multiplicity or top-confidence condition is excluded forever
// (§3.1.1). Memory is O(distinct itemsets · multiplicity); it exists to
// validate the constrained-memory algorithms, not to compete with them.
package exact

import (
	"bytes"
	"fmt"
	"maps"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"implicate/internal/imps"
	"implicate/internal/wire"
	"implicate/internal/xhash"
)

// stripedSeed fixes the stripe router's hash, so key→stripe routing — and
// with it IngestPartitionHashed — is stable across restarts and restores.
const stripedSeed = 0x5ca1ab1e0ddba11

// Counter is the exact implication counter. It implements imps.Estimator
// (its "estimates" are exact) and imps.HashedPartitionedAdder, and all its
// methods are safe for concurrent use.
//
// The item table is split over n ≥ 1 lock stripes, each A-itemset owned by
// the stripe a fixed-seed hash of it selects. Exact counting is
// order-dependent only per key, so any schedule that keeps each key's Add
// order leaves the state a serial one-stripe counter would hold. Readers,
// Health and MarshalBinary hold every stripe lock: a serializable cut that
// includes every Add that returned before it began.
type Counter struct {
	cond    imps.Conditions
	hash    xhash.Hash
	mask    uint64 // len(stripes)-1: a's stripe is hash(a) & mask
	stripes []stripe
}

// stripe is one mutex-guarded share of the item table, padded so that
// neighbouring stripes do not share a cache line.
type stripe struct {
	mu sync.Mutex
	table
	_ [64 - (unsafe.Sizeof(sync.Mutex{})+unsafe.Sizeof(table{}))%64]byte
}

// table holds the itemsets one stripe owns, their aggregate counts and a
// top-c selection buffer reused across Adds.
type table struct {
	items map[string]*state
	counts
	scratch []int64
}

// counts are a table's aggregates, maintained incrementally.
type counts struct {
	tuples, entries, distinct                int64
	implications, nonImplications, supported int64
}

type state struct {
	supp int64
	out  bool // excluded forever: violated a condition after reaching τ
	perB map[string]int64
}

// NewCounter returns an exact counter with one lock stripe.
func NewCounter(cond imps.Conditions) (*Counter, error) { return NewStriped(cond, 1) }

// NewStriped returns an exact counter whose item table is split over the
// given number of lock stripes. stripes must be a power of two >= 1;
// stripes == 0 selects GOMAXPROCS rounded down to a power of two. Every
// stripe count answers and encodes exactly like NewCounter's.
func NewStriped(cond imps.Conditions, stripes int) (*Counter, error) {
	if stripes == 0 {
		stripes = 1 << (bits.Len(uint(runtime.GOMAXPROCS(0))) - 1)
	}
	if stripes < 1 || stripes&(stripes-1) != 0 {
		return nil, fmt.Errorf("exact: stripe count %d must be a power of two", stripes)
	}
	if err := cond.Validate(); err != nil {
		return nil, err
	}
	c := &Counter{cond: cond, hash: xhash.New(stripedSeed), mask: uint64(stripes - 1), stripes: make([]stripe, stripes)}
	for i := range c.stripes {
		c.stripes[i].items = make(map[string]*state)
	}
	return c, nil
}

// MustCounter is NewCounter panicking on error.
func MustCounter(cond imps.Conditions) *Counter {
	c, err := NewCounter(cond)
	if err != nil {
		panic(err)
	}
	return c
}

// Conditions returns the implication conditions.
func (c *Counter) Conditions() imps.Conditions { return c.cond }

// Stripes returns the lock stripe count.
func (c *Counter) Stripes() int { return len(c.stripes) }

// stripeOf returns the stripe that owns a; a lone stripe skips the hash.
func (c *Counter) stripeOf(a string) *stripe {
	if c.mask == 0 {
		return &c.stripes[0]
	}
	return &c.stripes[c.hash.Sum(a)&c.mask]
}

// Add observes one tuple, locking only the stripe that owns a.
func (c *Counter) Add(a, b string) {
	s := c.stripeOf(a)
	s.mu.Lock()
	s.add(c.cond, a, b)
	s.mu.Unlock()
}

// HashPairKeys implements imps.HashedPartitionedAdder. Only the A key is
// hashed — stripes and partitions both route on it — so bh is 0.
func (c *Counter) HashPairKeys(a, b string) (ah, bh uint64) { return c.hash.Sum(a), 0 }

// IngestPartitionHashed implements imps.HashedPartitionedAdder: a key's
// partition is the low bits of its hash — the bits that pick its stripe —
// clamped to the stripe count so that two workers never share a stripe lock.
func (c *Counter) IngestPartitionHashed(ah uint64, n int) int {
	return int(ah & uint64(min(n, len(c.stripes))-1))
}

// AddHashedPairs ingests pairs whose AH came from HashPairKeys in slice
// order, holding a stripe's lock across each run of pairs it owns; a
// partition bucket is one such run.
func (c *Counter) AddHashedPairs(pairs []imps.HashedPair) {
	for len(pairs) > 0 {
		n, si := 1, pairs[0].AH&c.mask
		for n < len(pairs) && pairs[n].AH&c.mask == si {
			n++
		}
		s := &c.stripes[si]
		s.mu.Lock()
		for _, p := range pairs[:n] {
			s.add(c.cond, p.A, p.B)
		}
		s.mu.Unlock()
		pairs = pairs[n:]
	}
}

// add observes one tuple of an itemset the table owns. Key strings are
// cloned on first insert: callers on the zero-copy planning path hand keys
// that alias a whole batch buffer, and a map key that outlives the call
// must not pin it.
func (t *table) add(cond imps.Conditions, a, b string) {
	t.tuples++
	st := t.items[a]
	if st == nil {
		st = &state{perB: make(map[string]int64, 1)}
		t.items[strings.Clone(a)] = st
		t.entries++
		t.distinct++
	}
	st.supp++
	if !st.out {
		if _, ok := st.perB[b]; ok {
			st.perB[b]++
		} else {
			t.entries++
			st.perB[strings.Clone(b)] = 1
		}
	}
	if st.supp == cond.MinSupport {
		t.supported++
		if !st.out {
			// The itemset just became eligible; if it already satisfies all
			// conditions it joins the implication count until disproven.
			t.implications++
		}
	}
	if st.supp >= cond.MinSupport && !st.out {
		if len(st.perB) > cond.MaxMultiplicity || t.topConfidence(cond, st) < cond.MinTopConfidence {
			st.out = true
			t.entries -= int64(len(st.perB))
			st.perB = nil
			t.implications--
			t.nonImplications++
		}
	}
}

func (t *table) topConfidence(cond imps.Conditions, st *state) float64 {
	t.scratch = t.scratch[:0]
	for _, v := range st.perB {
		t.scratch = append(t.scratch, v)
	}
	return imps.TopConfidence(t.scratch, cond.TopC, st.supp)
}

// lockAll takes every stripe lock and returns the function releasing them.
func (c *Counter) lockAll() (unlock func()) {
	for i := range c.stripes {
		c.stripes[i].mu.Lock()
	}
	return func() {
		for i := range c.stripes {
			c.stripes[i].mu.Unlock()
		}
	}
}

// sum adds up the stripes' counts; the caller holds every stripe lock.
func (c *Counter) sum() (n counts) {
	for i := range c.stripes {
		s := &c.stripes[i].counts
		n.tuples += s.tuples
		n.entries += s.entries
		n.distinct += s.distinct
		n.implications += s.implications
		n.nonImplications += s.nonImplications
		n.supported += s.supported
	}
	return n
}

// total is sum under every stripe lock.
func (c *Counter) total() counts {
	defer c.lockAll()()
	return c.sum()
}

// all yields every itemset of every stripe; the caller holds every stripe
// lock.
func (c *Counter) all(yield func(string, *state) bool) {
	for i := range c.stripes {
		for a, st := range c.stripes[i].items {
			if !yield(a, st) {
				return
			}
		}
	}
}

// ImplicationCount returns the exact implication count S.
func (c *Counter) ImplicationCount() float64 { return float64(c.total().implications) }

// NonImplicationCount returns the exact non-implication count ~S.
func (c *Counter) NonImplicationCount() float64 { return float64(c.total().nonImplications) }

// SupportedDistinct returns the exact F0^sup(A).
func (c *Counter) SupportedDistinct() float64 { return float64(c.total().supported) }

// DistinctCount returns the exact F0(A).
func (c *Counter) DistinctCount() float64 { return float64(c.total().distinct) }

// Tuples returns the number of tuples observed.
func (c *Counter) Tuples() int64 { return c.total().tuples }

// MemEntries reports held counter entries (itemset supports plus pair
// counters).
func (c *Counter) MemEntries() int { return int(c.total().entries) }

// item returns a's support, exclusion flag and tracked partner count under
// its stripe lock; an unseen itemset has support 0.
func (c *Counter) item(a string) (supp int64, out bool, mult int) {
	s := c.stripeOf(a)
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.items[a]; st != nil {
		supp, out, mult = st.supp, st.out, len(st.perB)
	}
	return supp, out, mult
}

// Implies reports whether the itemset a currently participates in the
// implication count.
func (c *Counter) Implies(a string) bool {
	supp, out, _ := c.item(a)
	return !out && supp >= c.cond.MinSupport
}

// Support returns σ(a).
func (c *Counter) Support(a string) int64 {
	supp, _, _ := c.item(a)
	return supp
}

// Multiplicity returns |φ(a→B)| for itemsets that have not been excluded;
// for excluded itemsets the tracked partners were freed and it returns -1.
func (c *Counter) Multiplicity(a string) int {
	if _, out, mult := c.item(a); !out {
		return mult
	}
	return -1
}

// AvgMultiplicity returns the mean number of distinct B-partners over the
// itemsets currently in the implication count (Table 2's complex-aggregate
// row), or 0 when the count is empty.
func (c *Counter) AvgMultiplicity() float64 {
	defer c.lockAll()()
	var n, sum float64
	for _, st := range c.all {
		if !st.out && st.supp >= c.cond.MinSupport {
			n++
			sum += float64(len(st.perB))
		}
	}
	return sum / max(n, 1) // sum is 0 when n is
}

// Implicating returns the itemsets currently in the implication count, in
// sorted order — the answer a frequent-itemset style algorithm would return
// (useful in tests comparing against ILC).
func (c *Counter) Implicating() []string {
	defer c.lockAll()()
	var out []string
	for a, st := range c.all {
		if !st.out && st.supp >= c.cond.MinSupport {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return out
}

// mapEntryOverhead approximates the Go map bookkeeping of one entry beyond
// its key bytes and value payload (bucket slot, tophash byte, string header,
// amortized spare capacity): Health reports estimates, not heap measurements.
const mapEntryOverhead = 48

// Health reports the counter's runtime footprint. The counter is exact, so
// it has no saturation or error fields — only tuples, entries and bytes.
func (c *Counter) Health() imps.HealthReport {
	defer c.lockAll()()
	n := c.sum()
	h := imps.HealthReport{Tuples: n.tuples, MemEntries: int(n.entries)}
	for a, st := range c.all {
		h.MemBytes += int64(len(a)) + mapEntryOverhead + int64(unsafe.Sizeof(*st))
		for b := range st.perB {
			h.MemBytes += int64(len(b)) + mapEntryOverhead + 8
		}
	}
	return h
}

// The binary form is the full item table: the engine's kill-and-resume
// guarantee for this backend is counts identical to an uninterrupted run.
const (
	marshalMagic = "EXCT\x01"
	// legacyMagic heads the encoding earlier builds wrote for a counter of
	// several stripes; its body is the EXCT\x01 layout byte for byte.
	legacyMagic = "EXCS\x01"
)

// MarshalBinary encodes the complete counter state. Items (and each item's
// B-partners) are written in sorted order and the stripe count is not
// written, so equal states encode to equal bytes at every stripe count.
func (c *Counter) MarshalBinary() ([]byte, error) {
	defer c.lockAll()()
	e := wire.NewEncoder(1024)
	e.Raw([]byte(marshalMagic))
	e.U32(uint32(c.cond.MaxMultiplicity))
	e.I64(c.cond.MinSupport)
	e.U32(uint32(c.cond.TopC))
	e.F64(c.cond.MinTopConfidence)
	e.I64(c.sum().tuples)
	var keys []string
	for a := range c.all {
		keys = append(keys, a)
	}
	slices.Sort(keys)
	e.U32(uint32(len(keys)))
	for _, a := range keys {
		st := c.stripeOf(a).items[a]
		e.Str(a)
		e.I64(st.supp)
		e.Bool(st.out)
		if st.out {
			continue
		}
		e.U32(uint32(len(st.perB)))
		for _, b := range slices.Sorted(maps.Keys(st.perB)) {
			e.Str(b)
			e.I64(st.perB[b])
		}
	}
	return e.Bytes(), nil
}

// UnmarshalCounter decodes a counter previously encoded with MarshalBinary
// into a one-stripe counter, rebuilding the cached aggregate counts from
// the decoded items.
func UnmarshalCounter(data []byte) (*Counter, error) { return UnmarshalStriped(data, 1) }

// UnmarshalStriped decodes MarshalBinary's encoding, or the EXCS\x01 one
// earlier builds wrote for several stripes, into a counter with the given
// stripe count (0 selects the NewStriped default); any count restores the
// same logical state.
func UnmarshalStriped(data []byte, stripes int) (*Counter, error) {
	d := wire.NewDecoder(data)
	if bytes.HasPrefix(data, []byte(legacyMagic)) {
		d.Magic(legacyMagic)
	} else {
		d.Magic(marshalMagic)
	}
	var cond imps.Conditions
	cond.MaxMultiplicity = int(d.U32())
	cond.MinSupport = d.I64()
	cond.TopC = int(d.U32())
	cond.MinTopConfidence = d.F64()
	c, err := NewStriped(cond, stripes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", wire.ErrCorrupt, err)
	}
	// Decode errors are sticky: they zero every later read and surface at
	// Done. An item takes at least 4+8+1 bytes, a pair 4+8.
	wantTuples, tuples := d.I64(), int64(0)
	for i := d.Count(13); i > 0 && d.Err() == nil; i-- {
		a, st := d.Str(1<<24), &state{supp: d.I64(), out: d.Bool()}
		if !st.out {
			npairs := d.Count(12)
			st.perB = make(map[string]int64, npairs)
			for ; npairs > 0; npairs-- {
				b, n := d.Str(1<<24), d.I64()
				if _, dup := st.perB[b]; dup || n < 1 {
					d.Failf("duplicate or empty partner")
				}
				st.perB[b] = n
			}
		}
		// An item below the minimum support can never have been excluded.
		t := &c.stripeOf(a).table
		if _, dup := t.items[a]; dup || st.supp < 1 || st.out && st.supp < cond.MinSupport {
			d.Failf("duplicate, empty or impossible item")
		}
		t.items[a] = st
		t.tuples += st.supp
		t.entries += 1 + int64(len(st.perB))
		t.distinct++
		if st.supp >= cond.MinSupport {
			t.supported++
			if st.out {
				t.nonImplications++
			} else {
				t.implications++
			}
		}
		tuples += st.supp
	}
	// Every Add increments exactly one item's support alongside the tuple
	// count, so the two totals must agree.
	if wantTuples < 0 || tuples != wantTuples {
		d.Failf("tuple count %d, item supports sum to %d", wantTuples, tuples)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// ConfigFingerprint identifies the exact algorithm and its conditions, its
// only configuration that reaches an answer.
func (c *Counter) ConfigFingerprint() string {
	return fmt.Sprintf("exact(%s)", c.cond)
}

var _ imps.Estimator = (*Counter)(nil)
var _ imps.MultiplicityAverager = (*Counter)(nil)
var _ imps.HashedPartitionedAdder = (*Counter)(nil)
var _ imps.HealthReporter = (*Counter)(nil)
