// Package window implements the incremental and sliding-window techniques
// of §3.2. The base framework counts implications from a fixed reference
// point; Incremental differencing answers "how many NEW itemsets with the
// implication property appeared between t1 and t2" (Figure 1), and Sliding
// maintains a vector of estimators with staggered origins, retiring old
// ones, to answer moving-window queries (Figure 2).
package window

import (
	"fmt"

	"implicate/internal/imps"
)

// Mark is a snapshot of an estimator's counts at a reference point.
type Mark struct {
	Label  string
	Tuples int64
	// Implications is ic(t): the implication count at the snapshot.
	Implications float64
	// NonImplications is ~S at the snapshot.
	NonImplications float64
}

// Incremental wraps an estimator and answers incremental queries by
// differencing snapshots: ic(t2) − ic(t1) estimates the count of new
// implicating itemsets between the two points.
type Incremental struct {
	est   imps.Estimator
	marks []Mark
}

// NewIncremental wraps est. The estimator must be fresh (its reference
// point is the wrap time).
func NewIncremental(est imps.Estimator) *Incremental {
	return &Incremental{est: est}
}

// Add observes one tuple.
func (in *Incremental) Add(a, b string) { in.est.Add(a, b) }

// Estimator exposes the wrapped estimator.
func (in *Incremental) Estimator() imps.Estimator { return in.est }

// Snapshot records and returns the current counts under the given label.
func (in *Incremental) Snapshot(label string) Mark {
	m := Mark{
		Label:           label,
		Tuples:          in.est.Tuples(),
		Implications:    in.est.ImplicationCount(),
		NonImplications: in.est.NonImplicationCount(),
	}
	in.marks = append(in.marks, m)
	return m
}

// Marks returns all recorded snapshots in order.
func (in *Incremental) Marks() []Mark { return append([]Mark(nil), in.marks...) }

// Since returns the incremental implication count since the mark:
// ic(now) − ic(mark), clamped at zero.
func (in *Incremental) Since(m Mark) float64 {
	d := in.est.ImplicationCount() - m.Implications
	if d < 0 {
		return 0
	}
	return d
}

// Sliding answers moving-window implication counts by maintaining
// estimators with origins spaced Granularity tuples apart and retiring
// those too old to matter (Figure 2). The window count over the last Width
// tuples is read from the live estimator whose origin is nearest to
// now−Width; the approximation error is bounded by the itemsets arriving
// within one granularity step.
type Sliding struct {
	width int64
	gran  int64
	newE  func() imps.Estimator
	slots []slot
	n     int64
}

type slot struct {
	origin int64
	est    imps.Estimator
}

// NewSliding returns a sliding-window counter over windows of width tuples
// with origins every gran tuples; newEstimator must return fresh,
// identically configured estimators.
func NewSliding(width, gran int64, newEstimator func() imps.Estimator) (*Sliding, error) {
	if width < 1 || gran < 1 || gran > width {
		return nil, fmt.Errorf("window: need 1 <= granularity (%d) <= width (%d)", gran, width)
	}
	if newEstimator == nil {
		return nil, fmt.Errorf("window: nil estimator factory")
	}
	s := &Sliding{width: width, gran: gran, newE: newEstimator}
	s.slots = append(s.slots, slot{origin: 0, est: newEstimator()})
	return s, nil
}

// MustSliding is NewSliding panicking on error.
func MustSliding(width, gran int64, newEstimator func() imps.Estimator) *Sliding {
	s, err := NewSliding(width, gran, newEstimator)
	if err != nil {
		panic(err)
	}
	return s
}

// Add observes one tuple in every live estimator, opening and retiring
// origins as the stream advances.
func (s *Sliding) Add(a, b string) {
	if s.n > 0 && s.n%s.gran == 0 {
		s.slots = append(s.slots, slot{origin: s.n, est: s.newE()})
	}
	s.n++
	for _, sl := range s.slots {
		sl.est.Add(a, b)
	}
	// Retire origins that precede the window start: the window reader only
	// ever needs origins at or after n−width.
	cut := s.n - s.width
	keepFrom := 0
	for keepFrom < len(s.slots)-1 && s.slots[keepFrom].origin < cut {
		keepFrom++
	}
	if keepFrom > 0 {
		s.slots = append(s.slots[:0], s.slots[keepFrom:]...)
	}
}

// Tuples returns the number of tuples observed.
func (s *Sliding) Tuples() int64 { return s.n }

// Estimators returns the number of live estimators (≈ width/granularity+1).
func (s *Sliding) Estimators() int { return len(s.slots) }

// MemEntries sums the live estimators' entry counts.
func (s *Sliding) MemEntries() int {
	var n int
	for _, sl := range s.slots {
		n += sl.est.MemEntries()
	}
	return n
}

// window returns the estimator whose origin best approximates the window
// start n−width: the oldest live origin at or after it, so the windowed
// count never includes pre-window arrivals and misses at most one
// granularity step of fresh ones.
func (s *Sliding) window() imps.Estimator {
	cut := s.n - s.width
	for _, sl := range s.slots {
		if sl.origin >= cut {
			return sl.est
		}
	}
	return s.slots[len(s.slots)-1].est
}

// ImplicationCount estimates the implication count over the last Width
// tuples (itemsets that began satisfying the conditions within the window).
func (s *Sliding) ImplicationCount() float64 { return s.window().ImplicationCount() }

// NonImplicationCount estimates the windowed non-implication count.
func (s *Sliding) NonImplicationCount() float64 { return s.window().NonImplicationCount() }

// SupportedDistinct estimates the windowed supported-distinct count.
func (s *Sliding) SupportedDistinct() float64 { return s.window().SupportedDistinct() }

// AvgMultiplicity delegates to the windowed estimator. Whether the
// estimators can average is a property of the factory, and callers (the
// query engine in particular) are expected to validate it against a probe
// estimator up front — so an estimator without the capability here is a
// construction bug, and panicking is what keeps that bug from silently
// reading as "the average is 0".
func (s *Sliding) AvgMultiplicity() float64 {
	ma, ok := s.window().(imps.MultiplicityAverager)
	if !ok {
		panic(fmt.Sprintf("window: estimator %T cannot answer AvgMultiplicity; validate the factory before querying", s.window()))
	}
	return ma.AvgMultiplicity()
}

// SlotState is one live estimator and the stream position its window count
// starts from, exposed so checkpointing can serialize a Sliding and rebuild
// it with Restore.
type SlotState struct {
	Origin int64
	Est    imps.Estimator
}

// Width returns the window width in tuples.
func (s *Sliding) Width() int64 { return s.width }

// Granularity returns the origin spacing in tuples.
func (s *Sliding) Granularity() int64 { return s.gran }

// Slots returns the live estimators oldest-origin first. The estimators are
// the live ones, not copies; callers must not Add through them.
func (s *Sliding) Slots() []SlotState {
	out := make([]SlotState, len(s.slots))
	for i, sl := range s.slots {
		out[i] = SlotState{Origin: sl.origin, Est: sl.est}
	}
	return out
}

// Restore replaces the counter's state with a checkpointed one: n tuples
// observed and the given live slots. The slots must be plausible for this
// counter's geometry — at least one, oldest first with strictly ascending
// origins aligned to the granularity, none opened at or after position n
// (origin 0 exists from the start) — so a corrupted checkpoint fails here
// rather than producing silently wrong window counts.
func (s *Sliding) Restore(n int64, slots []SlotState) error {
	if n < 0 {
		return fmt.Errorf("window: restore with negative tuple count %d", n)
	}
	if len(slots) == 0 {
		return fmt.Errorf("window: restore with no slots")
	}
	for i, sl := range slots {
		if sl.Est == nil {
			return fmt.Errorf("window: restore slot %d has no estimator", i)
		}
		if sl.Origin < 0 || sl.Origin%s.gran != 0 {
			return fmt.Errorf("window: restore slot %d origin %d not aligned to granularity %d", i, sl.Origin, s.gran)
		}
		if sl.Origin > 0 && sl.Origin >= n {
			return fmt.Errorf("window: restore slot %d origin %d not before position %d", i, sl.Origin, n)
		}
		if i > 0 && sl.Origin <= slots[i-1].Origin {
			return fmt.Errorf("window: restore origins not strictly ascending at slot %d", i)
		}
	}
	s.n = n
	s.slots = s.slots[:0]
	for _, sl := range slots {
		s.slots = append(s.slots, slot{origin: sl.Origin, est: sl.Est})
	}
	return nil
}

var _ imps.Estimator = (*Sliding)(nil)
var _ imps.MultiplicityAverager = (*Sliding)(nil)
