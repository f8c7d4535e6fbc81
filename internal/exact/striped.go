package exact

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"implicate/internal/imps"
	"implicate/internal/wire"
	"implicate/internal/xhash"
)

// stripedSeed fixes the stripe router's hash. The seed never influences an
// answer (stripes partition the key space, every read sums all stripes), so
// a constant keeps key→stripe routing — and therefore IngestPartitionHashed —
// stable across restarts and restores.
const stripedSeed = 0x5ca1ab1e0ddba11

// Striped is the exact counter partitioned for concurrent ingestion: a
// power-of-two array of mutex-guarded Counters, with each A-itemset owned
// by the stripe its hash selects. Exact counting is order-independent
// across distinct keys and order-dependent only per key, so any ingestion
// schedule that preserves per-key Add order leaves state identical to the
// serial Counter — which is exactly the partition contract of
// imps.HashedPartitionedAdder. Concurrent producers contend only when their
// tuples hash to the same stripe, and AddHashedPairs takes each stripe lock
// once per run of same-stripe pairs.
//
// All methods are safe for concurrent use. Reads lock every stripe, so
// they observe a serializable snapshot spanning all adds that returned
// before the read began.
type Striped struct {
	cond imps.Conditions
	hash xhash.Hash
	mask uint64

	stripes []counterStripe
}

// counterStripe is one mutex-guarded sub-counter, padded to a cache line so
// adjacent stripe locks do not false-share.
type counterStripe struct {
	mu sync.Mutex
	c  *Counter
	_  [48]byte
}

// NewStriped returns a striped exact counter. stripes must be a power of
// two >= 1; stripes == 0 selects GOMAXPROCS rounded down to a power of two.
func NewStriped(cond imps.Conditions, stripes int) (*Striped, error) {
	if stripes == 0 {
		stripes = 1
		for stripes*2 <= runtime.GOMAXPROCS(0) {
			stripes *= 2
		}
	}
	if stripes < 1 || stripes&(stripes-1) != 0 {
		return nil, fmt.Errorf("exact: stripe count %d must be a power of two", stripes)
	}
	s := &Striped{
		cond:    cond,
		hash:    xhash.New(stripedSeed),
		mask:    uint64(stripes - 1),
		stripes: make([]counterStripe, stripes),
	}
	for i := range s.stripes {
		c, err := NewCounter(cond)
		if err != nil {
			return nil, err
		}
		s.stripes[i].c = c
	}
	return s, nil
}

// Conditions returns the implication conditions the counter enforces.
func (s *Striped) Conditions() imps.Conditions { return s.cond }

// Stripes returns the stripe count.
func (s *Striped) Stripes() int { return len(s.stripes) }

// Add observes one tuple, locking only the stripe that owns a.
func (s *Striped) Add(a, b string) {
	st := &s.stripes[s.hash.Sum(a)&s.mask]
	st.mu.Lock()
	st.c.Add(a, b)
	st.mu.Unlock()
}

// HashPairKeys implements imps.HashedPartitionedAdder. Only the A key is
// hashed — stripes and partitions both route on it — so bh is 0.
func (s *Striped) HashPairKeys(a, b string) (ah, bh uint64) {
	return s.hash.Sum(a), 0
}

// IngestPartitionHashed routes a pre-hashed A key: the partition is the low
// bits of the fixed-seed key hash. Exact counting is order-sensitive only
// per key, and a key's tuples always share a partition, so any schedule
// preserving per-partition order reproduces the serial state for every
// power-of-two n — independent of the stripe count, since stripes only
// guard memory, never ordering.
func (s *Striped) IngestPartitionHashed(ah uint64, n int) int {
	return int(ah & uint64(n-1))
}

// AddHashedPairs ingests plan-IR pairs whose AH came from HashPairKeys,
// routing on the forwarded hash and holding each stripe lock across runs of
// consecutive same-stripe pairs. Pairs are applied in slice order, which
// preserves per-key order — all a key's pairs share a stripe — so the
// result matches the serial Counter. A planned partition bucket is entirely
// one stripe whenever the partition count is at least the stripe count,
// both being low bits of the same hash: the common case is one lock
// acquisition for the whole bucket.
func (s *Striped) AddHashedPairs(pairs []imps.HashedPair) {
	cur := -1
	for i := range pairs {
		si := int(pairs[i].AH & s.mask)
		if si != cur {
			if cur >= 0 {
				s.stripes[cur].mu.Unlock()
			}
			s.stripes[si].mu.Lock()
			cur = si
		}
		s.stripes[si].c.Add(pairs[i].A, pairs[i].B)
	}
	if cur >= 0 {
		s.stripes[cur].mu.Unlock()
	}
}

func (s *Striped) lockAll() {
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
}

func (s *Striped) unlockAll() {
	for i := range s.stripes {
		s.stripes[i].mu.Unlock()
	}
}

// ImplicationCount returns the exact implication count S.
func (s *Striped) ImplicationCount() float64 {
	s.lockAll()
	defer s.unlockAll()
	var n int64
	for i := range s.stripes {
		n += s.stripes[i].c.implications
	}
	return float64(n)
}

// NonImplicationCount returns the exact non-implication count ~S.
func (s *Striped) NonImplicationCount() float64 {
	s.lockAll()
	defer s.unlockAll()
	var n int64
	for i := range s.stripes {
		n += s.stripes[i].c.nonImplications
	}
	return float64(n)
}

// SupportedDistinct returns the exact F0^sup(A).
func (s *Striped) SupportedDistinct() float64 {
	s.lockAll()
	defer s.unlockAll()
	var n int64
	for i := range s.stripes {
		n += s.stripes[i].c.supported
	}
	return float64(n)
}

// DistinctCount returns the exact F0(A).
func (s *Striped) DistinctCount() float64 {
	s.lockAll()
	defer s.unlockAll()
	var n int
	for i := range s.stripes {
		n += len(s.stripes[i].c.items)
	}
	return float64(n)
}

// Tuples returns the number of tuples observed across all stripes.
func (s *Striped) Tuples() int64 {
	s.lockAll()
	defer s.unlockAll()
	var n int64
	for i := range s.stripes {
		n += s.stripes[i].c.tuples
	}
	return n
}

// MemEntries reports held counter entries across all stripes.
func (s *Striped) MemEntries() int {
	s.lockAll()
	defer s.unlockAll()
	var n int
	for i := range s.stripes {
		n += s.stripes[i].c.entries
	}
	return n
}

// AvgMultiplicity returns the mean number of distinct B-partners over the
// itemsets currently in the implication count, or 0 when the count is
// empty.
func (s *Striped) AvgMultiplicity() float64 {
	s.lockAll()
	defer s.unlockAll()
	var n, sum float64
	for i := range s.stripes {
		for _, st := range s.stripes[i].c.items {
			if !st.out && st.supp >= s.cond.MinSupport {
				n++
				sum += float64(len(st.perB))
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// ConfigFingerprint identifies the algorithm and its conditions. The stripe
// count is deliberately excluded: it partitions memory without affecting
// any answer, like a sketch's auto-derived seed.
func (s *Striped) ConfigFingerprint() string {
	return fmt.Sprintf("exact-striped(%s)", s.cond)
}

const stripedMagic = "EXCS\x01"

// MarshalBinary encodes the counter's logical state: the merged item table
// across all stripes, globally sorted. The stripe count is not part of the
// encoding, so two Striped counters holding the same logical state produce
// identical bytes whatever their stripe geometry — the bit-identity the
// determinism suite asserts against a serial shadow.
func (s *Striped) MarshalBinary() ([]byte, error) {
	s.lockAll()
	defer s.unlockAll()

	e := wire.NewEncoder(1024)
	e.Raw([]byte(stripedMagic))
	e.U32(uint32(s.cond.MaxMultiplicity))
	e.I64(s.cond.MinSupport)
	e.U32(uint32(s.cond.TopC))
	e.F64(s.cond.MinTopConfidence)

	var tuples int64
	var nitems int
	for i := range s.stripes {
		tuples += s.stripes[i].c.tuples
		nitems += len(s.stripes[i].c.items)
	}
	e.I64(tuples)

	keys := make([]string, 0, nitems)
	for i := range s.stripes {
		for a := range s.stripes[i].c.items {
			keys = append(keys, a)
		}
	}
	sort.Strings(keys)
	e.U32(uint32(len(keys)))
	for _, a := range keys {
		st := s.stripes[s.hash.Sum(a)&s.mask].c.items[a]
		e.Str(a)
		e.I64(st.supp)
		e.Bool(st.out)
		if st.out {
			continue
		}
		bs := make([]string, 0, len(st.perB))
		for b := range st.perB {
			bs = append(bs, b)
		}
		sort.Strings(bs)
		e.U32(uint32(len(bs)))
		for _, b := range bs {
			e.Str(b)
			e.I64(st.perB[b])
		}
	}
	return e.Bytes(), nil
}

// UnmarshalStriped decodes state previously encoded with MarshalBinary
// into a counter with the given stripe count (0 selects the NewStriped
// default). The encoding is stripe-independent, so any geometry restores
// the same logical state.
func UnmarshalStriped(data []byte, stripes int) (*Striped, error) {
	d := wire.NewDecoder(data)
	d.Magic(stripedMagic)

	var cond imps.Conditions
	cond.MaxMultiplicity = int(d.U32())
	cond.MinSupport = d.I64()
	cond.TopC = int(d.U32())
	cond.MinTopConfidence = d.F64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	s, err := NewStriped(cond, stripes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", wire.ErrCorrupt, err)
	}
	wantTuples := d.I64()
	if wantTuples < 0 {
		return nil, wire.ErrCorrupt
	}

	var tuples int64
	nitems := d.Count(13)
	for i := 0; i < nitems; i++ {
		a := d.Str(1 << 24)
		st := &state{supp: d.I64(), out: d.Bool()}
		if d.Err() != nil {
			return nil, d.Err()
		}
		if st.supp < 1 {
			return nil, wire.ErrCorrupt
		}
		if !st.out {
			npairs := d.Count(12)
			st.perB = make(map[string]int64, npairs)
			for p := 0; p < npairs; p++ {
				b := d.Str(1 << 24)
				n := d.I64()
				if d.Err() != nil {
					return nil, d.Err()
				}
				if n < 1 {
					return nil, wire.ErrCorrupt
				}
				if _, dup := st.perB[b]; dup {
					return nil, wire.ErrCorrupt
				}
				st.perB[b] = n
			}
		}
		c := s.stripes[s.hash.Sum(a)&s.mask].c
		if _, dup := c.items[a]; dup {
			return nil, wire.ErrCorrupt
		}
		if err := c.restoreItem(a, st); err != nil {
			return nil, err
		}
		tuples += st.supp
		c.tuples += st.supp
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	// Every Add increments exactly one item's support alongside the tuple
	// count, so the two totals must agree.
	if tuples != wantTuples {
		return nil, wire.ErrCorrupt
	}
	return s, nil
}

// restoreItem installs a decoded item and folds it into the cached
// aggregates, mirroring the accounting of UnmarshalCounter.
func (c *Counter) restoreItem(a string, st *state) error {
	c.items[a] = st
	c.entries++
	c.entries += len(st.perB)
	if st.supp >= c.cond.MinSupport {
		c.supported++
		if st.out {
			c.nonImplications++
		} else {
			c.implications++
		}
	} else if st.out {
		// An item below the minimum support can never have been excluded.
		return wire.ErrCorrupt
	}
	return nil
}

var _ imps.Estimator = (*Striped)(nil)
var _ imps.MultiplicityAverager = (*Striped)(nil)
var _ imps.HashedPartitionedAdder = (*Striped)(nil)
