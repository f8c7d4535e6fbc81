package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"implicate/internal/exact"
	"implicate/internal/imps"
)

func TestMergeCompatibilityChecks(t *testing.T) {
	cond := testConditions()
	a := MustSketch(cond, Options{Seed: 1})
	if err := a.Merge(nil); err == nil {
		t.Error("nil sketch accepted")
	}
	otherCond := cond
	otherCond.MinSupport++
	if err := a.Merge(MustSketch(otherCond, Options{Seed: 1})); err == nil {
		t.Error("different conditions accepted")
	}
	if err := a.Merge(MustSketch(cond, Options{Seed: 2})); err == nil {
		t.Error("different seed accepted")
	}
	if err := a.Merge(MustSketch(cond, Options{FringeSize: 8, Seed: 1})); err == nil {
		t.Error("different fringe accepted")
	}
}

// TestMergeConfigMismatchRejected walks every single-option deviation —
// bitmap count, fringe size, seed, slack, unbounded mode — and requires
// Merge to reject it AND to leave the target bit-identical to its
// pre-merge state: a refused merge must never half-apply. This guards the
// SnapshotMerge RPC, where a misconfigured leaf shipping its sketch to an
// aggregator must be a reported error, not a silently mis-merged count.
func TestMergeConfigMismatchRejected(t *testing.T) {
	cond := testConditions()
	base := Options{Bitmaps: 32, FringeSize: 4, Slack: 2, Seed: 9}
	mismatches := []struct {
		name string
		opts Options
	}{
		{"bitmap count", Options{Bitmaps: 64, FringeSize: 4, Slack: 2, Seed: 9}},
		{"fringe size", Options{Bitmaps: 32, FringeSize: 8, Slack: 2, Seed: 9}},
		{"seed", Options{Bitmaps: 32, FringeSize: 4, Slack: 2, Seed: 10}},
		{"slack", Options{Bitmaps: 32, FringeSize: 4, Slack: 4, Seed: 9}},
		{"unbounded", Options{Bitmaps: 32, FringeSize: 4, Slack: 2, Seed: 9, Unbounded: true}},
	}
	for _, mm := range mismatches {
		t.Run(mm.name, func(t *testing.T) {
			dst := MustSketch(cond, base)
			src := MustSketch(cond, mm.opts)
			// Both sketches carry state so a mis-merge would be visible.
			for i := 0; i < 500; i++ {
				a := fmt.Sprintf("a%d", i%60)
				dst.Add(a, fmt.Sprintf("b%d", i%7))
				src.Add(a, fmt.Sprintf("c%d", i%5))
			}
			before, err := dst.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Merge(src); err == nil {
				t.Fatalf("mismatched %s accepted", mm.name)
			}
			after, err := dst.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if string(before) != string(after) {
				t.Fatalf("rejected merge mutated the target sketch (%d vs %d bytes)", len(before), len(after))
			}
		})
	}

	// The control: identical options on both sides must merge.
	dst := MustSketch(cond, base)
	src := MustSketch(cond, base)
	dst.Add("a", "b")
	src.Add("c", "d")
	if err := dst.Merge(src); err != nil {
		t.Fatalf("identically configured sketches refused: %v", err)
	}
}

// TestMergeDisjointEqualsUnion: when the two halves touch disjoint itemset
// populations, merging unbounded sketches must reproduce the single-sketch
// run over the concatenated stream exactly (counter sums are then trivially
// identical; bounded sketches additionally differ in float/overflow timing
// and are covered by the statistical test below).
func TestMergeDisjointEqualsUnion(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 2, MinSupport: 3, TopC: 1, MinTopConfidence: 0.8}
	opts := Options{Seed: 5, Unbounded: true}
	whole := MustSketch(cond, opts)
	left := MustSketch(cond, opts)
	right := MustSketch(cond, opts)

	feed := func(dsts []*Sketch, a, b uint64) {
		for _, d := range dsts {
			d.AddIDs(a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		a := uint64(i)
		partners := 1 + rng.Intn(4) // some imply, some violate multiplicity
		for k := 0; k < 5; k++ {
			b := uint64(100000 + i*10 + k%partners)
			if i%2 == 0 {
				feed([]*Sketch{whole, left}, a, b)
			} else {
				feed([]*Sketch{whole, right}, a, b)
			}
		}
	}
	if err := left.Merge(right); err != nil {
		t.Fatal(err)
	}
	if got, want := left.ImplicationCount(), whole.ImplicationCount(); math.Abs(got-want) > 1e-9 {
		t.Errorf("merged implication count %v != whole-stream %v", got, want)
	}
	if got, want := left.NonImplicationCount(), whole.NonImplicationCount(); math.Abs(got-want) > 1e-9 {
		t.Errorf("merged non-implication count %v != whole-stream %v", got, want)
	}
	if got, want := left.SupportedDistinct(), whole.SupportedDistinct(); math.Abs(got-want) > 1e-9 {
		t.Errorf("merged supported count %v != whole-stream %v", got, want)
	}
	if left.Tuples() != whole.Tuples() {
		t.Errorf("merged tuples %d != %d", left.Tuples(), whole.Tuples())
	}
	if left.MemEntries() != whole.MemEntries() {
		t.Errorf("merged entries %d != %d", left.MemEntries(), whole.MemEntries())
	}
}

// TestMergeSplitStreamAccuracy: splitting one stream across two nodes and
// merging must stay close to the exact count — the distributed-aggregation
// use case (itemsets appear on BOTH nodes, so counters genuinely combine).
func TestMergeSplitStreamAccuracy(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 2, MinSupport: 6, TopC: 1, MinTopConfidence: 0.8}
	var errSum float64
	const runs = 5
	for run := 0; run < runs; run++ {
		opts := Options{Seed: uint64(run*19 + 3)}
		left := MustSketch(cond, opts)
		right := MustSketch(cond, opts)
		ex := exact.MustCounter(cond)
		rng := rand.New(rand.NewSource(int64(run)))

		const nImp, nViol = 2000, 2000
		type pair struct{ a, b uint64 }
		var tuples []pair
		for i := 0; i < nImp; i++ {
			for k := 0; k < 8; k++ {
				tuples = append(tuples, pair{uint64(i), uint64(1000000 + i)})
			}
		}
		for i := 0; i < nViol; i++ {
			for k := 0; k < 8; k++ {
				tuples = append(tuples, pair{uint64(500000 + i), uint64(2000000 + i*10 + k%4)})
			}
		}
		rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
		for n, tp := range tuples {
			ex.Add(fmt.Sprint(tp.a), fmt.Sprint(tp.b))
			if n%2 == 0 {
				left.AddIDs(tp.a, tp.b)
			} else {
				right.AddIDs(tp.a, tp.b)
			}
		}
		if err := left.Merge(right); err != nil {
			t.Fatal(err)
		}
		if int(ex.ImplicationCount()) != nImp {
			t.Fatalf("exact = %v, want %d", ex.ImplicationCount(), nImp)
		}
		errSum += math.Abs(left.ImplicationCount()-float64(nImp)) / float64(nImp)
	}
	if mean := errSum / runs; mean > 0.25 {
		t.Errorf("merged-sketch mean error %.3f too large", mean)
	}
}

// TestMergePreservesExclusions: an itemset excluded on one node must stay
// excluded after the merge even if the other node saw it behaving well.
func TestMergePreservesExclusions(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 1, MinSupport: 2, TopC: 1, MinTopConfidence: 1.0}
	opts := Options{Bitmaps: 1, Seed: 7}
	left := MustSketch(cond, opts)
	right := MustSketch(cond, opts)
	// Node L: "a" violates (two partners, support 2).
	left.Add("a", "x")
	left.Add("a", "y")
	// Node R: "a" looks perfectly implicating.
	for i := 0; i < 10; i++ {
		right.Add("a", "x")
	}
	if err := right.Merge(left); err != nil {
		t.Fatal(err)
	}
	_, rank := right.router.Route(right.ahash.Sum("a"))
	if !right.bms[0].value[rank] {
		t.Fatal("exclusion lost in merge")
	}
	// And it stays out under further updates.
	for i := 0; i < 10; i++ {
		right.Add("a", "x")
	}
	if got := right.bms[0].cells[rank]; got != nil {
		if idx := got.find(right.ahash.Sum("a")); idx >= 0 && !got.items[idx].st.excluded {
			t.Fatal("excluded itemset re-admitted after merge")
		}
	}
}

// TestMergeInvariants runs the structural invariant checks on merged
// sketches.
func TestMergeInvariants(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 2, MinSupport: 3, TopC: 1, MinTopConfidence: 0.7}
	opts := Options{Bitmaps: 8, FringeSize: 3, Seed: 11}
	a := MustSketch(cond, opts)
	b := MustSketch(cond, opts)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		x, y := uint64(rng.Intn(4000)), uint64(rng.Intn(9))
		if i%2 == 0 {
			a.AddIDs(x, y)
		} else {
			b.AddIDs(x, y)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for bi := range a.bms {
		bm := &a.bms[bi]
		for j := 0; j < Levels; j++ {
			if bm.dead[j] && bm.cells[j] != nil {
				t.Fatalf("bitmap %d: dead cell %d holds memory", bi, j)
			}
			c := bm.cells[j]
			if c == nil {
				continue
			}
			nSup, nDoom, nTomb := 0, 0, 0
			for k := range c.items {
				st := &c.items[k].st
				if st.excluded {
					nTomb++
					continue
				}
				if st.supp >= cond.MinSupport {
					nSup++
				}
				if st.doomed {
					nDoom++
				}
			}
			if nSup != c.nSupported || nDoom != c.nDoomed || nTomb != c.nExcluded {
				t.Fatalf("bitmap %d cell %d: census drift after merge", bi, j)
			}
		}
	}
	// Continued streaming after a merge must keep working.
	for i := 0; i < 5000; i++ {
		a.AddIDs(uint64(rng.Intn(4000)), uint64(rng.Intn(9)))
	}
	if a.ImplicationCount() < 0 {
		t.Fatal("negative count")
	}
}

// randomSplitCase draws one configuration and tuple stream for the split
// properties: small bitmap counts, fringes and capacities so overflows,
// push-outs, doomed itemsets, tombstones and support-only cells all occur.
func randomSplitCase(rng *rand.Rand, seed uint64) (imps.Conditions, Options, [][2]string) {
	k := 1 + rng.Intn(3)
	cond := imps.Conditions{MaxMultiplicity: k, MinSupport: int64(1 + rng.Intn(4)), TopC: 1, MinTopConfidence: 0.5 + rng.Float64()/2}
	opts := Options{Bitmaps: 1 << rng.Intn(5), FringeSize: 1 + rng.Intn(4), Slack: 1 + rng.Intn(2), Unbounded: rng.Intn(5) == 0, Seed: seed}
	nA, nB := 20+rng.Intn(1500), 1+rng.Intn(6)
	tuples := make([][2]string, 1000+rng.Intn(3000))
	for i := range tuples {
		a := rng.Intn(nA)
		tuples[i] = [2]string{fmt.Sprintf("a%d", a), fmt.Sprintf("b%d", (a+rng.Intn(nB))%7)}
	}
	return cond, opts, tuples
}

// requireSameState fails unless got holds want's state bit for bit, every
// bitmap and every estimator read included. PeakMemEntries is the one
// exception: a merge sums it, so it may only be an upper bound.
func requireSameState(t *testing.T, want, got *Sketch) {
	t.Helper()
	if got.PeakMemEntries() < want.PeakMemEntries() {
		t.Fatalf("peak %d below the single sketch's %d; it must bound it", got.PeakMemEntries(), want.PeakMemEntries())
	}
	got.peak = want.peak
	if got.Tuples() != want.Tuples() || got.MemEntries() != want.MemEntries() {
		t.Fatalf("tuples/entries %d/%d, want %d/%d", got.Tuples(), got.MemEntries(), want.Tuples(), want.MemEntries())
	}
	var gd, wd strings.Builder
	got.Dump(&gd, 0)
	want.Dump(&wd, 0)
	for bm := range want.bms {
		got.DumpCells(&gd, bm)
		want.DumpCells(&wd, bm)
	}
	if gd.String() != wd.String() {
		t.Fatalf("bitmaps differ\n got:\n%s\nwant:\n%s", gd.String(), wd.String())
	}
	reads := func(s *Sketch) []float64 {
		lo, hi := s.ImplicationCountInterval(2)
		return []float64{s.ImplicationCount(), lo, hi, s.CIImplicationCount(), s.RawImplicationCount(),
			s.NonImplicationCount(), s.SupportedDistinct(), s.DistinctCount(), s.AvgMultiplicity(), s.MinEstimable()}
	}
	for i, w := range reads(want) {
		if g := reads(got)[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("estimator read %d: %v, want %v", i, g, w)
		}
	}
	if got.Fringe() != want.Fringe() {
		t.Fatalf("fringe stats %+v, want %+v", got.Fringe(), want.Fringe())
	}
	gb, _ := got.MarshalBinary()
	wb, _ := want.MarshalBinary()
	if !bytes.Equal(gb, wb) {
		t.Fatal("marshalled state differs")
	}
}

// TestMergeBitmapSplitEqualsSingle is the property a coordinator's fleet
// rests on: a seeded random stream split by BitmapOf over k same-seed
// sketches, each fed its part in stream order, merges back to the single
// sketch fed the whole stream — every bitmap, Tuples, MemEntries and every
// estimator read.
func TestMergeBitmapSplitEqualsSingle(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		cond, opts, tuples := randomSplitCase(rng, seed)
		for _, k := range []int{1, 2, 3, 5} {
			single := MustSketch(cond, opts)
			parts := make([]*Sketch, k)
			for i := range parts {
				parts[i] = MustSketch(cond, opts)
			}
			owner := make([]int, opts.Bitmaps)
			for bm := range owner {
				owner[bm] = rng.Intn(k)
			}
			for _, tu := range tuples {
				single.Add(tu[0], tu[1])
				parts[owner[single.BitmapOf([]byte(tu[0]))]].Add(tu[0], tu[1])
			}
			for _, p := range parts[1:] {
				if err := parts[0].Merge(p); err != nil {
					t.Fatal(err)
				}
			}
			t.Run(fmt.Sprintf("seed=%d/k=%d", seed, k), func(t *testing.T) { requireSameState(t, single, parts[0]) })
		}
	}
}

// TestMergeSplitNeverClearsBits: a split that is NOT by bitmap — tuples
// dealt to k sketches at random, so itemsets straddle sketches — merges to
// a state that keeps every bit the single sketch set. The hashed-cell bits
// hold under any configuration. The non-implication and support bits hold
// with an unbounded fringe under multiplicity-only conditions (ψ below 1/K,
// which no itemset within K partners can fail). Two documented conservative
// choices fall outside: a bounded fringe judges capacity and push-outs at
// the merged fringe position, not where the single sketch's fringe stood
// when it overflowed; and a transient top-confidence dip visible only in one
// interleaving is missed (see Merge).
func TestMergeSplitNeverClearsBits(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		cond, opts, tuples := randomSplitCase(rng, seed)
		exactBits := rng.Intn(2) == 0
		if exactBits {
			opts.Unbounded = true
			cond.MinTopConfidence = 1 / float64(cond.MaxMultiplicity+1)
		}
		for _, k := range []int{2, 3, 5} {
			single := MustSketch(cond, opts)
			parts := make([]*Sketch, k)
			for i := range parts {
				parts[i] = MustSketch(cond, opts)
			}
			for _, tu := range tuples {
				single.Add(tu[0], tu[1])
				parts[rng.Intn(k)].Add(tu[0], tu[1])
			}
			for _, p := range parts[1:] {
				if err := parts[0].Merge(p); err != nil {
					t.Fatal(err)
				}
			}
			merged := parts[0]
			for bm := range single.bms {
				w, g := &single.bms[bm], &merged.bms[bm]
				supported := func(b *bitmap, j int) bool { return b.supped[j] || (b.cells[j] != nil && b.cells[j].nSupported > 0) }
				for j := 0; j < Levels; j++ {
					if w.touched[j] && !g.touched[j] {
						t.Fatalf("seed %d k %d: bitmap %d cell %d: merge cleared the hashed bit", seed, k, bm, j)
					}
					if !exactBits {
						continue
					}
					if w.value[j] && !g.value[j] {
						t.Fatalf("seed %d k %d: bitmap %d cell %d: merge cleared the non-implication bit", seed, k, bm, j)
					}
					if supported(w, j) && !supported(g, j) {
						t.Fatalf("seed %d k %d: bitmap %d cell %d: merge lost the support witness", seed, k, bm, j)
					}
				}
			}
		}
	}
}
