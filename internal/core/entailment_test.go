package core

import (
	"testing"

	"implicate/internal/exact"
	"implicate/internal/gen"
	"implicate/internal/imps"
	"implicate/internal/raceflag"
)

// TestConditionsOrderCounts pins the entailment order of the paper's
// conditions (Borchmann, "Deciding Entailment of Implications with Support
// and Confidence", PAPERS.md): an itemset that implies under stricter
// conditions also implies under looser ones. Raising ψ, lowering K or
// lowering c therefore never raises ImplicationCount and never lowers
// NonImplicationCount, for the exact counter and for the sketch fed the
// same Dataset One stream. None of the three conditions touches τ, so
// SupportedDistinct (F0^sup) stays put along every chain, for the counter
// and for the sketch. The sketch's orders also hold
// for the stream split by bitmap as a fleet splits it, read back through
// Merge and through Readout.
func TestConditionsOrderCounts(t *testing.T) {
	base := imps.Conditions{MaxMultiplicity: 6, MinSupport: 50, TopC: 2, MinTopConfidence: 0.9}
	// Each chain moves one condition from loosest to strictest and keeps
	// the others at base.
	chains := []struct {
		name     string
		values   []float64
		set      func(*imps.Conditions, float64)
		sketchF0 bool // whether the sketch's F0^sup is asserted constant
	}{
		{"ψ", []float64{0.5, 0.7, 0.9, 0.95, 0.99}, func(c *imps.Conditions, v float64) { c.MinTopConfidence = v }, true},
		{"K", []float64{8, 6, 4, 3, 2}, func(c *imps.Conditions, v float64) { c.MaxMultiplicity = int(v) }, true},
		{"c", []float64{4, 3, 2, 1}, func(c *imps.Conditions, v float64) { c.TopC = int(v) }, true},
	}
	at := func(set func(*imps.Conditions, float64), v float64) imps.Conditions {
		c := base
		set(&c, v)
		return c
	}

	seeds := []int64{100, 101, 102}
	if raceflag.Enabled {
		// One goroutine runs this test, so the race detector has nothing to
		// check; one seed keeps its ~16x slowdown out of the race suite.
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		d, err := gen.NewDatasetOne(gen.DatasetOneConfig{CardA: 4000, Count: 2000, C: 2, Support: 50, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		// One counter and one sketch per distinct condition (the chains
		// share base), each fed the whole stream in order, and per condition
		// three part sketches, each fed the tuples of every third bitmap.
		// The fleet's owner table differs, but its parts are as disjoint.
		type pair struct {
			counter, sketch imps.Estimator
			parts           [3]*Sketch
			merged          *Sketch
			readout         *Readout
		}
		ests := make(map[imps.Conditions]*pair)
		var all []imps.Estimator
		for _, ch := range chains {
			for _, v := range ch.values {
				c := at(ch.set, v)
				if _, ok := ests[c]; ok {
					continue
				}
				counter, err := exact.NewCounter(c)
				if err != nil {
					t.Fatal(err)
				}
				sk, err := NewSketch(c, Options{Seed: uint64(seed)})
				if err != nil {
					t.Fatal(err)
				}
				p := &pair{counter: counter, sketch: sk}
				for i := range p.parts {
					if p.parts[i], err = NewSketch(c, Options{Seed: uint64(seed)}); err != nil {
						t.Fatal(err)
					}
				}
				ests[c] = p
				all = append(all, counter, sk)
			}
		}
		keys := make([][2]string, len(d.Pairs))
		for i, p := range d.Pairs {
			keys[i] = [2]string{gen.Key(p.A), gen.Key(p.B)}
		}
		for _, e := range all {
			for _, k := range keys {
				e.Add(k[0], k[1])
			}
		}
		// Read each condition's parts back as one sketch: placed in a
		// Readout first, since Merge consumes the sketch merged in.
		for c, p := range ests {
			for _, k := range keys {
				p.parts[p.sketch.(*Sketch).BitmapOf([]byte(k[0]))%3].Add(k[0], k[1])
			}
			if p.readout, err = NewReadout(DefaultBitmaps); err != nil {
				t.Fatal(err)
			}
			if p.merged, err = NewSketch(c, Options{Seed: uint64(seed)}); err != nil {
				t.Fatal(err)
			}
			for _, part := range p.parts {
				if err := p.readout.Place(part.AppendReadout(nil)); err != nil {
					t.Fatal(err)
				}
				if err := p.merged.Merge(part); err != nil {
					t.Fatal(err)
				}
			}
		}

		for _, ch := range chains {
			for i := 1; i < len(ch.values); i++ {
				loose, strict := ests[at(ch.set, ch.values[i-1])], ests[at(ch.set, ch.values[i])]
				for _, e := range []struct {
					name          string
					loose, strict interface {
						ImplicationCount() float64
						NonImplicationCount() float64
						SupportedDistinct() float64
					}
					f0 bool
				}{
					{"exact", loose.counter, strict.counter, true},
					{"sketch", loose.sketch, strict.sketch, ch.sketchF0},
					{"split, merged", loose.merged, strict.merged, ch.sketchF0},
					{"split, readout", loose.readout, strict.readout, ch.sketchF0},
				} {
					if l, s := e.loose.ImplicationCount(), e.strict.ImplicationCount(); s > l {
						t.Errorf("%s, seed %d, %s %v → %v: ImplicationCount rose from %v to %v", e.name, seed, ch.name, ch.values[i-1], ch.values[i], l, s)
					}
					if l, s := e.loose.NonImplicationCount(), e.strict.NonImplicationCount(); s < l {
						t.Errorf("%s, seed %d, %s %v → %v: NonImplicationCount fell from %v to %v", e.name, seed, ch.name, ch.values[i-1], ch.values[i], l, s)
					}
					if l, s := e.loose.SupportedDistinct(), e.strict.SupportedDistinct(); e.f0 && s != l {
						t.Errorf("%s, seed %d, %s %v → %v: SupportedDistinct moved from %v to %v", e.name, seed, ch.name, ch.values[i-1], ch.values[i], l, s)
					}
				}
			}
		}
	}
}
