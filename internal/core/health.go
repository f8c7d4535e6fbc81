package core

import (
	"unsafe"

	"implicate/internal/imps"
	"implicate/internal/metrics"
)

// Health reports the sketch's runtime health: bitmap saturation, fringe
// occupancy, memory footprint and the estimator's own relative-error
// assessment, all read under one hold of every stripe lock. It implements
// imps.HealthReporter.
func (s *Sketch) Health() imps.HealthReport {
	s.lockAll()
	defer s.unlockAll()
	var set, dead int
	var memBytes int64
	for bi := range s.bms {
		b := &s.bms[bi]
		memBytes += int64(unsafe.Sizeof(*b))
		for i := 0; i < Levels; i++ {
			if b.value[i] {
				set++
			}
			if b.dead[i] {
				dead++
			}
		}
		for _, c := range b.cells {
			if c == nil {
				continue
			}
			memBytes += int64(unsafe.Sizeof(*c)) + int64(cap(c.items))*int64(unsafe.Sizeof(item{}))
			for j := range c.items {
				memBytes += int64(cap(c.items[j].st.perB)) * int64(unsafe.Sizeof(pairEntry{}))
			}
		}
	}
	fs := s.fringeStats()
	_, hi := implicationCountInterval(s, 1)
	c := s.counts()
	return imps.HealthReport{
		Tuples:           c.tuples,
		MemEntries:       c.entries,
		MemBytes:         memBytes,
		BitmapFill:       float64(set) / float64(len(s.bms)*Levels),
		LeftmostZero:     meanR(s, posHashed),
		FringeTracked:    fs.TrackedItemsets,
		FringePairs:      fs.PairCounters,
		FringeTombstones: fs.Tombstones,
		FringeEvictions:  int64(dead),
		FringeWidth:      fs.MaxFringeWidth,
		RelErr:           metrics.IntervalRelErr(implicationCount(s), hi, 1),
	}
}

var _ imps.HealthReporter = (*Sketch)(nil)
