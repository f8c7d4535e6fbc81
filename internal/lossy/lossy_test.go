package lossy

import (
	"fmt"
	"math/rand"
	"testing"

	"implicate/internal/imps"
)

func TestNewCounterValidation(t *testing.T) {
	for _, eps := range []float64{0, -0.1, 1, 1.5} {
		if _, err := NewCounter(eps); err == nil {
			t.Errorf("eps=%g accepted", eps)
		}
	}
	if _, err := NewCounter(0.01); err != nil {
		t.Fatal(err)
	}
}

// TestLossyCountingGuarantee checks the two Manku–Motwani guarantees on a
// skewed stream: no item with true frequency >= s·N is missed, and every
// reported item has true frequency >= (s−ε)·N.
func TestLossyCountingGuarantee(t *testing.T) {
	const eps, s = 0.005, 0.02
	c := MustCounter(eps)
	rng := rand.New(rand.NewSource(42))
	truth := map[string]int64{}
	var n int64
	// Zipf-ish stream over 2000 items.
	zipf := rand.NewZipf(rng, 1.3, 1.0, 1999)
	for i := 0; i < 200000; i++ {
		item := fmt.Sprintf("i%d", zipf.Uint64())
		truth[item]++
		n++
		c.Add(item)
	}
	if c.N() != n {
		t.Fatalf("N = %d, want %d", c.N(), n)
	}
	reported := map[string]bool{}
	for _, item := range c.Frequent(s) {
		reported[item] = true
		if float64(truth[item]) < (s-eps)*float64(n) {
			t.Errorf("false positive %s: true count %d < (s-eps)N = %.0f", item, truth[item], (s-eps)*float64(n))
		}
	}
	for item, cnt := range truth {
		if float64(cnt) >= s*float64(n) && !reported[item] {
			t.Errorf("missed frequent item %s with count %d >= sN = %.0f", item, cnt, s*float64(n))
		}
	}
}

// TestLossyCountUndercountBound checks count undercounts by at most ε·N.
func TestLossyCountUndercountBound(t *testing.T) {
	const eps = 0.01
	c := MustCounter(eps)
	var n int64
	for i := 0; i < 50000; i++ {
		item := fmt.Sprintf("i%d", i%500)
		c.Add(item)
		n++
	}
	trueCount := int64(50000 / 500)
	got := c.Count("i42")
	if got > trueCount {
		t.Fatalf("overcount: %d > %d", got, trueCount)
	}
	if float64(trueCount-got) > eps*float64(n) {
		t.Fatalf("undercount %d exceeds εN = %.0f", trueCount-got, eps*float64(n))
	}
}

// TestLossyMemoryLogBound checks the 1/ε·log(εN) space bound empirically.
func TestLossyMemoryLogBound(t *testing.T) {
	const eps = 0.01
	c := MustCounter(eps)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		c.Add(fmt.Sprintf("i%d", rng.Intn(50000)))
	}
	// 1/ε·log(εN) = 100·log(1000) ≈ 690.
	if c.Entries() > 1400 {
		t.Fatalf("entries %d exceed twice the theoretical bound", c.Entries())
	}
}

func TestILCValidation(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 2, MinSupport: 1, TopC: 1, MinTopConfidence: 0.8}
	if _, err := NewILC(imps.Conditions{}, 0.1, 0.01); err == nil {
		t.Error("zero conditions accepted")
	}
	if _, err := NewILC(cond, 0.001, 0.01); err == nil {
		t.Error("relSupport < eps accepted")
	}
	if _, err := NewILC(cond, 0.1, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := NewILC(cond, 0.1, 0.01); err != nil {
		t.Fatal(err)
	}
}

// TestILCIdentifiesImplications: on a stream where a few heavy itemsets
// imply and a few heavy itemsets violate, ILC must find exactly the heavy
// implicating ones (its design goal).
func TestILCIdentifiesImplications(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 1, MinSupport: 1, TopC: 1, MinTopConfidence: 0.9}
	ilc := MustILC(cond, 0.05, 0.01)
	rng := rand.New(rand.NewSource(3))
	// 10000 tuples: heavy implicators H0,H1 (each ~20% of the stream, one
	// partner), heavy violator V (20%, two alternating partners), the rest
	// light noise below the relative support.
	for i := 0; i < 10000; i++ {
		switch r := rng.Float64(); {
		case r < 0.2:
			ilc.Add("H0", "p0")
		case r < 0.4:
			ilc.Add("H1", "p1")
		case r < 0.6:
			ilc.Add("V", fmt.Sprintf("v%d", i%2))
		default:
			ilc.Add(fmt.Sprintf("light%d", rng.Intn(3000)), "x")
		}
	}
	got := ilc.Implicating()
	if len(got) != 2 || got[0] != "H0" || got[1] != "H1" {
		t.Fatalf("Implicating = %v, want [H0 H1]", got)
	}
	if ilc.ImplicationCount() != 2 {
		t.Fatalf("ImplicationCount = %v", ilc.ImplicationCount())
	}
	if ilc.NonImplicationCount() < 1 {
		t.Fatalf("violator not marked dirty")
	}
}

// TestILCLosesSmallImplications demonstrates §5.1.1: implications whose
// support is individually below the relative threshold are invisible to ILC
// although their cumulative count dominates, while NIPS-style absolute
// support would count them all.
func TestILCLosesSmallImplications(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 1, MinSupport: 5, TopC: 1, MinTopConfidence: 0.9}
	ilc := MustILC(cond, 0.01, 0.01)
	// 2000 itemsets, each with 10 tuples and a unique partner: all 2000
	// imply under the absolute conditions, but each holds only 10/20000 =
	// 0.05% of the stream, far below the 1% relative support.
	for i := 0; i < 2000; i++ {
		for k := 0; k < 10; k++ {
			ilc.Add(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
		}
	}
	if got := ilc.ImplicationCount(); got > 100 {
		t.Fatalf("ILC unexpectedly counted %v of the small implications", got)
	}
}

// TestILCDirtyEntriesPinned demonstrates the memory issue of §5.1.1: dirty
// entries are never pruned.
func TestILCDirtyEntriesPinned(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 1, MinSupport: 1, TopC: 1, MinTopConfidence: 0.99}
	ilc := MustILC(cond, 0.02, 0.02)
	// Phase 1: 500 distinct violators, each heavy enough (supp 2 within one
	// bucket of width 50, alternating partners) to be marked dirty.
	for i := 0; i < 500; i++ {
		a := fmt.Sprintf("v%d", i)
		ilc.Add(a, "x")
		ilc.Add(a, "y")
	}
	dirtyBefore := ilc.NonImplicationCount()
	if dirtyBefore < 400 {
		t.Fatalf("only %v violators marked dirty", dirtyBefore)
	}
	// Phase 2: a long unrelated stream; ordinary entries churn, dirty ones
	// must survive every pruning pass.
	for i := 0; i < 20000; i++ {
		ilc.Add(fmt.Sprintf("z%d", i), "w")
	}
	if got := ilc.NonImplicationCount(); got != dirtyBefore {
		t.Fatalf("dirty entries pruned: %v -> %v", dirtyBefore, got)
	}
	if ilc.MemEntries() < int(dirtyBefore) {
		t.Fatalf("MemEntries %d below pinned dirty count %v", ilc.MemEntries(), dirtyBefore)
	}
}

func TestILCAccessors(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 2, MinSupport: 1, TopC: 1, MinTopConfidence: 0.6}
	ilc := MustILC(cond, 0.05, 0.01)
	for i := 0; i < 2000; i++ {
		switch {
		case i%3 == 0:
			ilc.Add("H", "p")
		case i%3 == 1:
			ilc.Add("G", "q")
		default:
			ilc.Add("V", fmt.Sprintf("v%d", i%9))
		}
	}
	if ilc.Tuples() != 2000 {
		t.Fatalf("Tuples = %d", ilc.Tuples())
	}
	if got := ilc.SupportedDistinct(); got < 2 || got > 3 {
		t.Fatalf("SupportedDistinct = %v", got)
	}
	if got := ilc.AvgMultiplicity(); got != 1 {
		t.Fatalf("AvgMultiplicity = %v, want 1 (H and G each have one partner)", got)
	}
	empty := MustILC(cond, 0.05, 0.01)
	if empty.AvgMultiplicity() != 0 {
		t.Fatal("empty ILC average not zero")
	}
}

func TestLossyCountAbsent(t *testing.T) {
	c := MustCounter(0.1)
	if c.Count("nope") != 0 {
		t.Fatal("phantom count for absent item")
	}
	c.Add("x")
	if c.Count("x") != 1 {
		t.Fatalf("Count(x) = %d", c.Count("x"))
	}
}
