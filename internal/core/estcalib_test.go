package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"implicate/internal/fm"
	"implicate/internal/imps"
)

// ciEstimate is the Algorithm-2 style estimate (difference of corrected
// position-based counts), duplicated here so the comparison cannot drift
// from the implementation under test.
func ciEstimate(s *Sketch) float64 {
	d := fm.CorrectedEstimate(meanR(s, posSupported), len(s.bms)) -
		fm.CorrectedEstimate(meanR(s, posNonImplication), len(s.bms))
	if d < 0 {
		return 0
	}
	return d
}

// TestEstimatorComparison pins down the estimator design decision documented
// in DESIGN.md: across implication/non-implication mixes the direct
// fringe-sample estimator must stay within a flat error band, the unbounded
// variant must be essentially exact, and the position-difference CI
// estimator must degrade as S/F0 shrinks (the behaviour §4.7.2 concedes).
func TestEstimatorComparison(t *testing.T) {
	cond := testConditions()
	grid := []struct {
		nImp, nNon int
		maxDirect  float64 // error budget for the bounded direct estimator
	}{
		{1000, 0, 0.20},
		{900, 100, 0.20},
		{500, 500, 0.20},
		{100, 900, 0.25},
		{5000, 5000, 0.20},
		{2000, 8000, 0.22},
		{9000, 1000, 0.20},
		{1000, 9000, 0.25},
	}
	runs := 30
	if testing.Short() {
		runs = 8
	}
	for _, g := range grid {
		var errCI, errDirect, errUnbounded float64
		for run := 0; run < runs; run++ {
			sk := MustSketch(cond, Options{Seed: uint64(run*131 + 7)})
			un := MustSketch(cond, Options{Seed: uint64(run*131 + 7), Unbounded: true})
			rng := rand.New(rand.NewSource(int64(run*977 + 3)))
			feedWorkload(rng, []imps.Estimator{sk, un}, cond, g.nImp, g.nNon, int(cond.MinSupport)+4)
			truth := float64(g.nImp)
			errCI += math.Abs(ciEstimate(sk)-truth) / truth
			errDirect += math.Abs(sk.ImplicationCount()-truth) / truth
			errUnbounded += math.Abs(un.ImplicationCount()-truth) / truth
		}
		errCI /= float64(runs)
		errDirect /= float64(runs)
		errUnbounded /= float64(runs)
		name := fmt.Sprintf("imp=%d non=%d", g.nImp, g.nNon)
		if errDirect > g.maxDirect {
			t.Errorf("%s: direct estimator error %.3f exceeds %.2f", name, errDirect, g.maxDirect)
		}
		if errUnbounded > 0.02 {
			t.Errorf("%s: unbounded direct estimator error %.3f, want ≈0", name, errUnbounded)
		}
		// At heavily non-implication-dominated mixes the CI subtraction must
		// be visibly worse than the direct sample — that asymmetry is the
		// reason ImplicationCount uses the direct estimator.
		if g.nImp*4 <= g.nNon && errCI < errDirect {
			t.Errorf("%s: CI estimator (%.3f) unexpectedly beat the direct one (%.3f)", name, errCI, errDirect)
		}
	}
}
