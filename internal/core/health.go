package core

import (
	"unsafe"

	"implicate/internal/imps"
	"implicate/internal/metrics"
)

// Health reports the sketch's runtime health: bitmap saturation, fringe
// occupancy, memory footprint and the estimator's own relative-error
// assessment. It implements imps.HealthReporter. Like every other reader,
// it is not safe to call concurrently with Add.
func (s *Sketch) Health() imps.HealthReport {
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
	fs := s.Fringe()
	_, hi := s.ImplicationCountInterval(1)
	return imps.HealthReport{
		Tuples:           s.tuples,
		MemEntries:       s.entries,
		MemBytes:         memBytes,
		BitmapFill:       float64(set) / float64(len(s.bms)*Levels),
		LeftmostZero:     s.meanR((*bitmap).rHashed),
		FringeTracked:    fs.TrackedItemsets,
		FringePairs:      fs.PairCounters,
		FringeTombstones: fs.Tombstones,
		FringeEvictions:  int64(dead),
		FringeWidth:      fs.MaxFringeWidth,
		RelErr:           metrics.IntervalRelErr(s.ImplicationCount(), hi, 1),
	}
}

// Health reports the health of the one sketch the stripes guard, under a
// consistent snapshot (every stripe lock held). Safe for concurrent use.
func (ss *ShardedSketch) Health() imps.HealthReport { return read(ss, (*Sketch).Health) }

var _ imps.HealthReporter = (*Sketch)(nil)
var _ imps.HealthReporter = (*ShardedSketch)(nil)
