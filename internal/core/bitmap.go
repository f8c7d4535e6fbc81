package core

import "implicate/internal/imps"

// bitmap is one probabilistic-counting bitmap with a floating fringe zone
// (Figure 3 of the paper). Cells split into three zones:
//
//	Zone-1:  value[i] == true — a non-implicating itemset (or an overflow,
//	         or a fringe float) has been recorded; all tracking memory for
//	         the cell has been freed.
//	Fringe:  cells in [lo, hi] with value[i] == false — every itemset hashed
//	         here is tracked together with the B-itemsets it appears with,
//	         because its fate is still undecided.
//	Zone-0:  cells right of hi — nothing has hashed there yet.
//
// Cells left of lo with value[i] == false were pushed out of the fringe (or
// were empty when it floated past); if an itemset hashes there later it is
// tracked support-only — it can still witness the minimum-support condition
// for F0^sup but can never be confirmed a non-implication, a conservative
// choice the paper leaves open.
//
// Alongside the paper's value bit this implementation keeps two more sticky
// bits per cell. supped records that a minimum-support itemset was seen in
// the cell before its memory was freed, so the F0^sup reader stays truthful
// when a fringe float discards a cell full of under-supported itemsets
// (without it, every float would silently inflate F0^sup). touched records
// that anything ever hashed into the cell, backing the plain F0 reader.
type bitmap struct {
	value   [Levels]bool
	supped  [Levels]bool
	touched [Levels]bool
	// dead marks cells that stopped tracking forever: pushed out of the
	// fringe with recorded evidence, or overflowed. A cell whose value bit
	// was set by an ordinary confirmation stays alive — only the confirmed
	// violator is evicted, so the survivors keep feeding the direct
	// implication sample (the paper frees the whole cell, §4.3.2, trading
	// sample size for a constant-factor memory saving).
	dead  [Levels]bool
	cells [Levels]*cell
	// lo..hi delimit the fringe; hi is the rightmost hashed cell, -1 before
	// the first hash. lo is monotone non-decreasing.
	lo, hi    int
	overflows int
}

// cell tracks the undecided itemsets hashed into one fringe position.
// A confirmed violator is not evicted: its entry remains as an excluded
// tombstone, so the §3.1.1 "once violated, forever out" rule survives the
// itemset's later arrivals (a tombstone still occupies one of the cell's
// capacity slots, so the overflow rule keeps memory bounded exactly as the
// paper's capacity model prescribes).
//
// Cells hold at most slack·2^(F−1) itemsets, so they store them as an
// inline vector scanned linearly: no per-itemset heap allocation, no map
// buckets — the memory shape a constrained router implementation needs.
type cell struct {
	items []item
	// suppOnly marks a cell left of the fringe that only witnesses support.
	suppOnly bool
	// nSupported counts tracked itemsets whose support has reached the
	// minimum-support condition. Because a supported tracked itemset that
	// failed a condition is instantly tombstoned, every supported tracked
	// itemset is currently implying — nSupported is simultaneously the
	// cell's implication census, which the direct estimator scales up by
	// the cell's inclusion probability.
	nSupported int
	// nDoomed counts tracked itemsets that already exceeded the maximum
	// multiplicity and are merely waiting for the minimum support to
	// confirm their non-implication.
	nDoomed int
	// nExcluded counts tombstoned itemsets (confirmed non-implications).
	nExcluded int
}

// item is one tracked itemset slot in a cell.
type item struct {
	ah uint64
	st aState
}

// aState is the per-itemset sample entry: the support counter σ(a) and the
// per-b counters σ(a,b) of §4.3.4.
type aState struct {
	supp int64
	// doomed is set when the itemset has exceeded the maximum multiplicity;
	// its per-b counters are freed and only the support counter keeps
	// running until it reaches the minimum support (at which point the
	// non-implication is confirmed).
	doomed bool
	// excluded marks a tombstone: the itemset violated the conditions after
	// meeting the minimum support and is out forever.
	excluded bool
	perB     pairSet
}

// find returns the index of ah in the cell, or -1.
func (c *cell) find(ah uint64) int {
	for i := range c.items {
		if c.items[i].ah == ah {
			return i
		}
	}
	return -1
}

func (b *bitmap) init() {
	b.lo, b.hi = 0, -1
}

// pristine reports whether the bitmap never observed a tuple.
func (b *bitmap) pristine() bool { return *b == bitmap{hi: -1} }

// loFor returns the leftmost fringe cell given rightmost cell hi.
func (s *Sketch) loFor(hi int) int {
	if s.opts.Unbounded {
		return 0
	}
	lo := hi - s.opts.FringeSize + 1
	if lo < 0 {
		lo = 0
	}
	return lo
}

// capFor returns the itemset capacity of cell i. The fringe cell at distance
// d from the rightmost hashed cell expects 2^d distinct itemsets (Lemma 1),
// multiplied by the slack factor; support-only cells get the leftmost
// fringe cell's budget.
func (s *Sketch) capFor(b *bitmap, i int) int {
	if s.opts.Unbounded {
		return 1 << 30
	}
	d := b.hi - i
	if d >= s.opts.FringeSize {
		d = s.opts.FringeSize - 1
	}
	return s.opts.Slack << uint(d)
}

// freeCell releases all tracking memory of cell i.
func (s *Sketch) freeCell(ct *counters, b *bitmap, i int) {
	if c := b.cells[i]; c != nil {
		for j := range c.items {
			ct.entries -= 1 + len(c.items[j].st.perB)
		}
		b.cells[i] = nil
	}
}

// confirm records a confirmed non-implication in cell i and tombstones the
// violator (Algorithm 1, lines 13–15). The value bit is monotone: once one,
// the cell's non-implication event is recorded forever. The violator was
// supported by construction, so the supported bit is set alongside. The
// remaining tracked itemsets stay — they continue to feed both the support
// witness and the direct implication sample — and the violator's tombstone
// keeps it excluded for the rest of the stream.
func (s *Sketch) confirm(ct *counters, b *bitmap, i int, c *cell, st *aState) {
	b.value[i] = true
	b.supped[i] = true
	ct.entries -= len(st.perB) // the itemset slot stays as a tombstone
	if st.supp >= s.cond.MinSupport {
		c.nSupported--
	}
	if st.doomed {
		c.nDoomed--
	}
	st.excluded = true
	st.doomed = false
	st.perB = nil
	c.nExcluded++
}

// kill stops all tracking in cell i forever and frees its memory; used for
// overflows and fringe push-outs.
func (s *Sketch) kill(ct *counters, b *bitmap, i int) {
	b.dead[i] = true
	s.freeCell(ct, b, i)
}

// pushOut handles a cell that the floating fringe leaves behind (§4.3.3):
// a non-empty pushed-out cell joins Zone-1, exactly as the paper
// prescribes — its tracking is abandoned, and leaving it zero would pin the
// non-implication reader below this position forever (the reader's cells
// must be monotone). This is the source of the 2^−F·F0 estimation floor
// the paper derives. The supported bit, however, follows the evidence: it
// is only set when the cell actually witnessed a supported itemset (or a
// doomed or excluded one, which reached support by construction), so
// fringe floats do not fabricate F0^sup out of under-supported itemsets.
func (s *Sketch) pushOut(ct *counters, b *bitmap, i int) {
	c := b.cells[i]
	if c != nil && len(c.items) > 0 {
		b.value[i] = true
		if c.nSupported > 0 || c.nDoomed > 0 || c.nExcluded > 0 {
			b.supped[i] = true
		}
	}
	s.freeCell(ct, b, i)
	if b.value[i] {
		b.dead[i] = true
	}
}

// add is Algorithm 1 (NIPS) for one routed tuple. It books entries and
// top-c scratch on the writer's ct, never on the Sketch itself.
func (s *Sketch) add(ct *counters, b *bitmap, i int, ah, bh uint64) {
	b.touched[i] = true
	if b.hi < 0 {
		b.hi = i
		b.lo = s.loFor(i)
	} else if i > b.hi {
		// The itemset hashed into Zone-0: float the fringe right, making i
		// its rightmost cell; cells pushed out on the left leave the fringe.
		newLo := s.loFor(i)
		if newLo < b.lo {
			newLo = b.lo
		}
		b.hi = i
		for j := b.lo; j < newLo; j++ {
			s.pushOut(ct, b, j)
		}
		b.lo = newLo
	}

	if b.dead[i] && b.supped[i] {
		// The cell stopped tracking forever (overflow, confirmed violation,
		// or push-out with evidence); both its sticky bits are settled.
		return
	}

	c := b.cells[i]
	if c == nil {
		// A dead cell without a support witness (pushed out while all its
		// itemsets were under-supported) reopens in support-only mode: the
		// F0^sup reader still needs to learn whether a supported itemset
		// lives here. The first one to reach the minimum support settles
		// the sticky bit and the cell is freed again.
		c = &cell{suppOnly: i < b.lo || b.dead[i]}
		b.cells[i] = c
	}

	idx := c.find(ah)
	if idx < 0 {
		if len(c.items) >= s.capFor(b, i) {
			// No room to track another itemset: record a pessimistic one
			// (§4.3.3, "overflowed") and stop tracking here.
			b.overflows++
			b.value[i] = true
			b.supped[i] = true // the cell is demonstrably hot; keep F0^sup monotone
			s.kill(ct, b, i)
			return
		}
		c.items = append(c.items, item{ah: ah})
		idx = len(c.items) - 1
		ct.entries++
		if ct.entries > ct.peak {
			ct.peak = ct.entries
		}
	}
	st := &c.items[idx].st
	if st.excluded {
		// Tombstoned: the itemset violated the conditions after meeting the
		// minimum support and is excluded forever (§3.1.1).
		return
	}

	st.supp++
	if st.supp == s.cond.MinSupport {
		c.nSupported++
		if b.dead[i] {
			b.supped[i] = true
			s.freeCell(ct, b, i)
			return
		}
	}

	if c.suppOnly {
		return
	}

	if !st.doomed {
		if i := st.perB.find(bh); i >= 0 {
			st.perB[i].n++
		} else if len(st.perB) >= s.cond.MaxMultiplicity {
			// The (K+1)-th distinct B-itemset: the maximum-multiplicity
			// condition is violated forever, so the per-pair counters can be
			// freed; only the support counter must keep running until the
			// minimum support confirms the non-implication.
			ct.entries -= len(st.perB)
			st.doomed = true
			st.perB = nil
			c.nDoomed++
		} else {
			st.perB.add(bh, 1)
			ct.entries++
			if ct.entries > ct.peak {
				ct.peak = ct.entries
			}
		}
	}

	if st.supp >= s.cond.MinSupport {
		if st.doomed || s.topConfidence(ct, st) < s.cond.MinTopConfidence {
			s.confirm(ct, b, i, c, st)
		}
	}
}

// topConfidence computes Ψ_c(a,B) from the tracked per-b counters.
func (s *Sketch) topConfidence(ct *counters, st *aState) float64 {
	ct.scratch = ct.scratch[:0]
	for i := range st.perB {
		ct.scratch = append(ct.scratch, st.perB[i].n)
	}
	return imps.TopConfidence(ct.scratch, s.cond.TopC, st.supp)
}

// rNonImplication is R_~S: the leftmost cell whose value is not one
// (Algorithm 2, lines 5–8).
func (b *bitmap) rNonImplication() int {
	for i := 0; i < Levels; i++ {
		if !b.value[i] {
			return i
		}
	}
	return Levels
}

// rSupported is R_F0sup: the leftmost cell that has never witnessed an
// itemset meeting the minimum-support condition (Algorithm 2, lines 1–4).
func (b *bitmap) rSupported() int {
	for i := 0; i < Levels; i++ {
		if b.supped[i] {
			continue
		}
		if c := b.cells[i]; c != nil && c.nSupported > 0 {
			continue
		}
		return i
	}
	return Levels
}

// rHashed is the plain F0 position: the leftmost cell never hashed into.
func (b *bitmap) rHashed() int {
	for i := 0; i < Levels; i++ {
		if !b.touched[i] {
			return i
		}
	}
	return Levels
}
