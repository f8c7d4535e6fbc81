package core

import (
	"fmt"
	"io"
	"sort"
)

// Dump writes a human-readable snapshot of the sketch — configuration,
// estimates, and the per-bitmap zone structure — for debugging and for the
// operational "what is this sketch doing" question. It prints at most
// maxBitmaps bitmaps (0 means all).
func (s *Sketch) Dump(w io.Writer, maxBitmaps int) {
	s.lockAll()
	defer s.unlockAll()
	fmt.Fprintf(w, "NIPS/CI sketch: %s, m=%d fringe=%d slack=%d unbounded=%v seed=%#x\n",
		s.cond, s.opts.Bitmaps, s.opts.FringeSize, s.opts.Slack, s.opts.Unbounded, s.opts.Seed)
	c := s.counts()
	fmt.Fprintf(w, "tuples=%d entries=%d (peak %d)\n", c.tuples, c.entries, c.peak)
	lo, hi := implicationCountInterval(s, 2)
	fmt.Fprintf(w, "estimates: S=%.1f [%.1f, %.1f]  ~S=%.1f  F0sup=%.1f  F0=%.1f  avg|φ|=%.2f\n",
		implicationCount(s), lo, hi, nonImplicationCount(s), supportedDistinct(s), distinctCount(s), avgMultiplicity(s))
	fst := s.fringeStats()
	fmt.Fprintf(w, "fringe: tracked=%d pairs=%d tombstones=%d maxWidth=%d overflows=%d\n",
		fst.TrackedItemsets, fst.PairCounters, fst.Tombstones, fst.MaxFringeWidth, fst.Overflows)

	n := len(s.bms)
	if maxBitmaps > 0 && maxBitmaps < n {
		n = maxBitmaps
	}
	for bi := 0; bi < n; bi++ {
		b := &s.bms[bi]
		fmt.Fprintf(w, "bitmap %3d: lo=%d hi=%d cells=", bi, b.lo, b.hi)
		top := b.hi
		if top < 0 {
			fmt.Fprintln(w, "(empty)")
			continue
		}
		for j := 0; j <= top; j++ {
			switch {
			case b.dead[j]:
				fmt.Fprint(w, "X") // dead (overflow / pushed out)
			case b.value[j]:
				fmt.Fprint(w, "1") // non-implication recorded, still tracking
			case b.cells[j] != nil && len(b.cells[j].items) > 0:
				fmt.Fprint(w, "t") // tracking, undecided
			case b.touched[j]:
				fmt.Fprint(w, ".") // hashed at some point, currently empty
			default:
				fmt.Fprint(w, "0")
			}
		}
		fmt.Fprintln(w)
	}
	if n < len(s.bms) {
		fmt.Fprintf(w, "... %d more bitmaps\n", len(s.bms)-n)
	}
}

// DumpCells writes the tracked itemsets of one bitmap's live cells (hashes,
// supports, partner counts), sorted for stable output. Intended for tests
// and deep debugging.
func (s *Sketch) DumpCells(w io.Writer, bitmap int) {
	if bitmap < 0 || bitmap >= len(s.bms) {
		fmt.Fprintf(w, "bitmap %d out of range\n", bitmap)
		return
	}
	s.lockAll()
	defer s.unlockAll()
	b := &s.bms[bitmap]
	for j := 0; j < Levels; j++ {
		c := b.cells[j]
		if c == nil {
			continue
		}
		kind := "fringe"
		if c.suppOnly {
			kind = "supp-only"
		}
		fmt.Fprintf(w, "cell %d (%s, supported=%d doomed=%d excluded=%d):\n",
			j, kind, c.nSupported, c.nDoomed, c.nExcluded)
		sorted := append([]item(nil), c.items...)
		sort.Slice(sorted, func(x, y int) bool { return sorted[x].ah < sorted[y].ah })
		for i := range sorted {
			it := &sorted[i]
			if it.st.excluded {
				fmt.Fprintf(w, "  %016x tombstone\n", it.ah)
				continue
			}
			fmt.Fprintf(w, "  %016x supp=%d doomed=%v partners=%d\n", it.ah, it.st.supp, it.st.doomed, len(it.st.perB))
		}
	}
}
