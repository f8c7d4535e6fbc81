package window

import (
	"fmt"
	"testing"

	"implicate/internal/core"
	"implicate/internal/exact"
	"implicate/internal/imps"
)

func cond() imps.Conditions {
	return imps.Conditions{MaxMultiplicity: 1, MinSupport: 2, TopC: 1, MinTopConfidence: 1.0}
}

// addImplication feeds an itemset that satisfies the conditions (support 2,
// single partner).
func addImplication(est interface{ Add(a, b string) }, id int) {
	a, b := fmt.Sprintf("a%d", id), fmt.Sprintf("b%d", id)
	est.Add(a, b)
	est.Add(a, b)
}

func TestIncrementalSnapshots(t *testing.T) {
	in := NewIncremental(exact.MustCounter(cond()))
	for i := 0; i < 100; i++ {
		addImplication(in, i)
	}
	m1 := in.Snapshot("t1")
	if m1.Implications != 100 || m1.Tuples != 200 {
		t.Fatalf("m1 = %+v", m1)
	}
	for i := 100; i < 130; i++ {
		addImplication(in, i)
	}
	m2 := in.Snapshot("t2")
	if got := m2.Implications - m1.Implications; got != 30 {
		t.Fatalf("marks differ by %v implications, want 30", got)
	}
	if got := in.Since(m1); got != 30 {
		t.Fatalf("Since = %v, want 30", got)
	}
	if marks := in.Marks(); len(marks) != 2 || marks[0].Label != "t1" {
		t.Fatalf("Marks = %v", marks)
	}
}

func TestIncrementalClampsRetirements(t *testing.T) {
	// An itemset can violate conditions after a snapshot, making the raw
	// difference negative; Since clamps at zero.
	in := NewIncremental(exact.MustCounter(cond()))
	addImplication(in, 1)
	m := in.Snapshot("t1")
	in.Add("a1", "OTHER") // multiplicity violation: a1 leaves the count
	if got := in.Since(m); got != 0 {
		t.Fatalf("Since = %v, want 0 (clamped)", got)
	}
}

func TestSlidingValidation(t *testing.T) {
	mk := func() imps.Estimator { return exact.MustCounter(cond()) }
	if _, err := NewSliding(0, 1, mk); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := NewSliding(10, 20, mk); err == nil {
		t.Error("granularity > width accepted")
	}
	if _, err := NewSliding(10, 5, nil); err == nil {
		t.Error("nil factory accepted")
	}
}

func TestSlidingWindowCounts(t *testing.T) {
	// Window of 1000 tuples, origins every 250. Itemsets arrive in bursts;
	// the windowed count must track only recent arrivals.
	s := MustSliding(1000, 250, func() imps.Estimator { return exact.MustCounter(cond()) })
	// Phase 1: 200 implications (400 tuples).
	for i := 0; i < 200; i++ {
		addImplication(s, i)
	}
	if got := s.ImplicationCount(); got != 200 {
		t.Fatalf("phase 1 window count = %v, want 200", got)
	}
	// Phase 2: 800 more tuples of pure noise (each itemset once: below
	// support). The stream is now 1200 tuples; the window [200,1200]
	// contains the implications that arrived at tuples 200..400 — exactly
	// 100 of them. The windowed reader (origin 250) must report close to
	// that, not the full 200.
	for i := 0; i < 800; i++ {
		s.Add(fmt.Sprintf("noise%d", i), "x")
	}
	got := s.ImplicationCount()
	if got > 100 || got < 50 {
		t.Fatalf("window count = %v, want within one granularity of 100", got)
	}
	// Phase 3: fresh implications enter the window immediately.
	for i := 0; i < 50; i++ {
		addImplication(s, 10000+i)
	}
	if got := s.ImplicationCount(); got < 50 {
		t.Fatalf("fresh implications missing: window count = %v", got)
	}
}

func TestSlidingRetiresEstimators(t *testing.T) {
	s := MustSliding(500, 100, func() imps.Estimator { return exact.MustCounter(cond()) })
	for i := 0; i < 10000; i++ {
		s.Add(fmt.Sprintf("a%d", i%70), fmt.Sprintf("b%d", i%70))
	}
	// Live estimators stay near width/gran + 1 = 6.
	if n := s.Estimators(); n < 4 || n > 8 {
		t.Fatalf("live estimators = %d, want ≈6", n)
	}
	if s.Tuples() != 10000 {
		t.Fatalf("Tuples = %d", s.Tuples())
	}
	if s.MemEntries() <= 0 {
		t.Fatal("MemEntries not positive")
	}
}

// TestSlidingWithSketch smoke-tests the sliding machinery over the NIPS
// sketch rather than the exact counter.
func TestSlidingWithSketch(t *testing.T) {
	var seed uint64
	s := MustSliding(2000, 500, func() imps.Estimator {
		seed++
		return core.MustSketch(cond(), core.Options{Seed: seed})
	})
	for i := 0; i < 1500; i++ {
		addImplication(s, i)
	}
	// 3000 tuples seen; the window [1000,3000] holds the 1000 implications
	// that arrived after tuple 1000.
	got := s.ImplicationCount()
	if got < 700 || got > 1350 {
		t.Fatalf("sketch window count = %v, want ≈1000", got)
	}
	if s.NonImplicationCount() > 200 {
		t.Fatalf("phantom non-implications: %v", s.NonImplicationCount())
	}
	if s.SupportedDistinct() < 1000 {
		t.Fatalf("SupportedDistinct = %v", s.SupportedDistinct())
	}
}
