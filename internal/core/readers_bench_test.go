package core

import (
	"math/rand"
	"testing"

	"implicate/internal/imps"
)

var benchSink float64

// benchSketch is a default-shaped sketch (m = 64, F = 4) after 200 000
// tuples over 30 000 A-itemsets, a third of which break the multiplicity
// bound: every bitmap has a live fringe, tombstones and support-only cells.
func benchSketch() *Sketch {
	cond := imps.Conditions{MaxMultiplicity: 2, MinSupport: 5, TopC: 1, MinTopConfidence: 0.8}
	s := MustSketch(cond, Options{Seed: 1})
	rng := rand.New(rand.NewSource(1))
	for range 200_000 {
		a := uint64(rng.Intn(30_000))
		s.AddIDs(a, a%3*uint64(rng.Intn(4)))
	}
	return s
}

// BenchmarkReaders times each estimator read of a populated sketch: the
// library's query cost, one fold over the m bitmaps per call.
func BenchmarkReaders(b *testing.B) {
	s := benchSketch()
	for _, r := range []struct {
		name string
		read func() float64
	}{
		{"ImplicationCount", s.ImplicationCount},
		{"NonImplicationCount", s.NonImplicationCount},
		{"SupportedDistinct", s.SupportedDistinct},
		{"DistinctCount", s.DistinctCount},
		{"AvgMultiplicity", s.AvgMultiplicity},
	} {
		b.Run(r.name, func(b *testing.B) {
			for range b.N {
				benchSink = r.read()
			}
		})
	}
}
