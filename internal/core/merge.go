package core

import (
	"errors"
	"fmt"
)

// ErrIncompatible is returned by Merge when the sketches were not built
// with identical conditions and options.
var ErrIncompatible = errors.New("core: sketches are not merge-compatible")

// Merge folds other into s, so that s summarizes the concatenation of both
// input streams. It supports the paper's distributed-aggregation setting
// (§2: sensor networks and router hierarchies aggregate partial statistics
// upstream): nodes sketch their local streams with identical conditions,
// options and seed, and the merged sketch answers queries over the union.
//
// A bitmap only one side observed is taken over whole, so inputs that split
// one stream by BitmapOf merge to one sketch fed the whole stream, bitmap
// for bitmap (PeakMemEntries excepted). Otherwise, recorded
// non-implication events are monotone bits, so they merge losslessly.
// Tracked per-itemset counters are summed and the implication conditions
// re-evaluated on the sums; a condition violation that would only have been
// visible in a specific interleaving of the two streams (a transient
// top-confidence dip) can be missed, exactly as it would be had the
// violating tuples arrived in the merged order. Capacity rules are
// re-applied at the merged fringe position, so the memory bounds are
// preserved.
//
// other is left in an unspecified state and must not be used afterwards.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return fmt.Errorf("%w: nil sketch", ErrIncompatible)
	}
	if s.cond != other.cond {
		return fmt.Errorf("%w: conditions %v vs %v", ErrIncompatible, s.cond, other.cond)
	}
	if s.opts != other.opts {
		return fmt.Errorf("%w: options differ", ErrIncompatible)
	}
	for i := range s.bms {
		s.mergeBitmap(&s.bms[i], &other.bms[i])
	}
	s.tuples += other.tuples
	s.peak += other.peak
	s.recountEntries()
	return nil
}

func (s *Sketch) mergeBitmap(dst, src *bitmap) {
	if src.pristine() {
		return
	}
	if dst.pristine() {
		*dst, *src = *src, *dst
		return
	}
	// Sticky bits merge by union.
	for i := 0; i < Levels; i++ {
		dst.touched[i] = dst.touched[i] || src.touched[i]
		dst.value[i] = dst.value[i] || src.value[i]
		dst.supped[i] = dst.supped[i] || src.supped[i]
	}
	dst.overflows += src.overflows

	// The merged fringe is anchored at the merged rightmost hashed cell;
	// cells left of either side's tracked region lose full tracking.
	newHi := dst.hi
	if src.hi > newHi {
		newHi = src.hi
	}
	if newHi < 0 {
		return // both empty
	}
	newLo := s.loFor(newHi)
	if dst.hi >= 0 && dst.lo > newLo {
		newLo = dst.lo
	}
	if src.hi >= 0 && src.lo > newLo {
		newLo = src.lo
	}
	if dst.hi >= 0 {
		for j := dst.lo; j < newLo && j <= dst.hi; j++ {
			s.pushOut(&s.counters, dst, j)
		}
	}
	if src.hi >= 0 {
		for j := src.lo; j < newLo && j <= src.hi; j++ {
			s.pushOut(&s.counters, src, j)
			dst.value[j] = dst.value[j] || src.value[j]
			dst.supped[j] = dst.supped[j] || src.supped[j]
			dst.dead[j] = dst.dead[j] || src.dead[j]
		}
	}
	dst.hi, dst.lo = newHi, newLo

	for i := 0; i < Levels; i++ {
		dst.dead[i] = dst.dead[i] || src.dead[i]
		if dst.dead[i] {
			// A dead cell still owes the F0^sup reader its verdict: absorb
			// any support evidence either side gathered before dropping the
			// tracking (transient support-only state included).
			for _, c := range []*cell{dst.cells[i], src.cells[i]} {
				if c != nil && (c.nSupported > 0 || c.nDoomed > 0 || c.nExcluded > 0) {
					dst.supped[i] = true
				}
			}
			dst.cells[i] = nil
			src.cells[i] = nil
			continue
		}
		s.mergeCell(dst, i, src.cells[i])
		src.cells[i] = nil
	}
}

// mergeCell folds one source cell into dst's cell at position i.
func (s *Sketch) mergeCell(b *bitmap, i int, from *cell) {
	if from == nil || len(from.items) == 0 {
		return
	}
	c := b.cells[i]
	if c == nil {
		c = &cell{items: make([]item, 0, len(from.items)), suppOnly: i < b.lo}
		b.cells[i] = c
	}
	for fi := range from.items {
		ah, st := from.items[fi].ah, &from.items[fi].st
		if st.excluded {
			// Source tombstone: the itemset violated there; exclusion wins.
			b.value[i] = true
			b.supped[i] = true
			if idx := c.find(ah); idx >= 0 {
				cur := &c.items[idx].st
				cur.excluded = true
				cur.doomed = false
				cur.perB = nil
			} else {
				if len(c.items) >= s.capFor(b, i) {
					b.overflows++
					s.kill(&s.counters, b, i)
					return
				}
				c.items = append(c.items, item{ah: ah, st: aState{excluded: true}})
			}
			continue
		}
		idx := c.find(ah)
		if idx >= 0 && c.items[idx].st.excluded {
			continue // already excluded here
		}
		var cur *aState
		if idx < 0 {
			if len(c.items) >= s.capFor(b, i) {
				b.overflows++
				b.value[i] = true
				b.supped[i] = true
				s.kill(&s.counters, b, i)
				return
			}
			moved := aState{supp: st.supp, doomed: st.doomed}
			if !c.suppOnly && !st.doomed {
				moved.perB = st.perB.clone()
			}
			if c.suppOnly {
				moved.doomed = false
				moved.perB = nil
			}
			c.items = append(c.items, item{ah: ah, st: moved})
			cur = &c.items[len(c.items)-1].st
		} else {
			cur = &c.items[idx].st
			cur.supp += st.supp
			if c.suppOnly {
				// support-only region: nothing else to combine
			} else if cur.doomed || st.doomed {
				if !cur.doomed {
					cur.doomed = true
					cur.perB = nil
				}
			} else {
				for _, e := range st.perB {
					if pi := cur.perB.find(e.h); pi >= 0 {
						cur.perB[pi].n += e.n
					} else if len(cur.perB) >= s.cond.MaxMultiplicity {
						cur.doomed = true
						cur.perB = nil
						break
					} else {
						cur.perB.add(e.h, e.n)
					}
				}
			}
		}
		// Re-evaluate the conditions on the merged counters.
		if !c.suppOnly && cur.supp >= s.cond.MinSupport {
			if cur.doomed || s.topConfidence(&s.counters, cur) < s.cond.MinTopConfidence {
				b.value[i] = true
				b.supped[i] = true
				cur.excluded = true
				cur.doomed = false
				cur.perB = nil
			}
		}
	}
	s.recountCell(c)
}

// recountCell rebuilds a cell's census counters.
func (s *Sketch) recountCell(c *cell) {
	c.nSupported, c.nDoomed, c.nExcluded = 0, 0, 0
	for i := range c.items {
		st := &c.items[i].st
		switch {
		case st.excluded:
			c.nExcluded++
		default:
			if st.supp >= s.cond.MinSupport {
				c.nSupported++
			}
			if st.doomed {
				c.nDoomed++
			}
		}
	}
}

// recountEntries rebuilds the sketch-wide entry counter after a merge.
func (s *Sketch) recountEntries() {
	n := 0
	for bi := range s.bms {
		for _, c := range s.bms[bi].cells {
			if c == nil {
				continue
			}
			s.recountCell(c)
			for i := range c.items {
				n += 1 + len(c.items[i].st.perB)
			}
		}
	}
	s.entries = n
	if n > s.peak {
		s.peak = n
	}
}
