package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"implicate/internal/imps"
)

// readerValues lists every read a Readout shares with Sketch, each as the
// bits of its float64 result.
func readerValues(r interface {
	ImplicationCount() float64
	ImplicationCountInterval(z float64) (lo, hi float64)
	NonImplicationCount() float64
	SupportedDistinct() float64
	DistinctCount() float64
	AvgMultiplicity() float64
}) map[string]uint64 {
	lo, hi := r.ImplicationCountInterval(2)
	return map[string]uint64{
		"ImplicationCount":            math.Float64bits(r.ImplicationCount()),
		"ImplicationCountInterval":    math.Float64bits(lo),
		"ImplicationCountInterval.hi": math.Float64bits(hi),
		"NonImplicationCount":         math.Float64bits(r.NonImplicationCount()),
		"SupportedDistinct":           math.Float64bits(r.SupportedDistinct()),
		"DistinctCount":               math.Float64bits(r.DistinctCount()),
		"AvgMultiplicity":             math.Float64bits(r.AvgMultiplicity()),
	}
}

// TestReadoutEqualsMerge: sketches that split one stream by BitmapOf, read
// through their placed readout records, answer every read bit for bit as
// their Merge does — the property that lets a fleet query skip the merge —
// and the placed readout re-emits the merged sketch's records.
func TestReadoutEqualsMerge(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		cond, opts, tuples := randomSplitCase(rng, seed)
		for _, k := range []int{1, 2, 3, 5} {
			parts := make([]*Sketch, k)
			for i := range parts {
				parts[i] = MustSketch(cond, opts)
			}
			owner := make([]int, opts.Bitmaps)
			for bm := range owner {
				owner[bm] = rng.Intn(k)
			}
			for _, tu := range tuples {
				p := parts[owner[parts[0].BitmapOf([]byte(tu[0]))]]
				p.Add(tu[0], tu[1])
			}
			ro, err := NewReadout(opts.Bitmaps)
			if err != nil {
				t.Fatal(err)
			}
			touched := 0
			for _, p := range parts {
				recs := p.AppendReadout(nil)
				for bi := range p.bms {
					if !p.bms[bi].pristine() {
						touched++
					}
				}
				if err := ro.Place(recs); err != nil {
					t.Fatalf("seed=%d/k=%d: %v", seed, k, err)
				}
			}
			for _, p := range parts[1:] {
				if err := parts[0].Merge(p); err != nil {
					t.Fatal(err)
				}
			}
			merged := parts[0].AppendReadout(nil)
			if n := len(merged); n != touched*ReadoutRecordLen {
				t.Errorf("seed=%d/k=%d: %d readout bytes for %d touched bitmaps", seed, k, n, touched)
			}
			if !bytes.Equal(ro.AppendReadout(nil), merged) {
				t.Errorf("seed=%d/k=%d: the readout re-emits other records than the merged sketch writes", seed, k)
			}
			want, got := readerValues(parts[0]), readerValues(ro)
			for name, w := range want {
				if got[name] != w {
					t.Errorf("seed=%d/k=%d: readout %s = %v, merged sketch %v", seed, k, name, math.Float64frombits(got[name]), math.Float64frombits(w))
				}
			}
		}
	}
}

// TestReadoutOfNothing: a pristine sketch sends no record, and a readout
// with no record placed reads as that pristine sketch.
func TestReadoutOfNothing(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 2, MinSupport: 3, TopC: 1, MinTopConfidence: 0.8}
	s := MustSketch(cond, Options{Seed: 1})
	if recs := s.AppendReadout(nil); len(recs) != 0 {
		t.Fatalf("pristine sketch wrote %d readout bytes", len(recs))
	}
	ro, err := NewReadout(s.Options().Bitmaps)
	if err != nil {
		t.Fatal(err)
	}
	want, got := readerValues(s), readerValues(ro)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: empty readout %v, pristine sketch %v", name, math.Float64frombits(got[name]), math.Float64frombits(w))
		}
	}
}

// TestReadoutRefusesDuplicateIndex: a second record for one bitmap is an
// overlap, not a sum — whoever placed them must merge instead.
func TestReadoutRefusesDuplicateIndex(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 2, MinSupport: 1, TopC: 1, MinTopConfidence: 0.8}
	s := MustSketch(cond, Options{Seed: 1, Bitmaps: 8})
	s.Add("a", "b")
	recs := s.AppendReadout(nil)
	if len(recs) != ReadoutRecordLen {
		t.Fatalf("one tuple wrote %d readout bytes, want one record", len(recs))
	}
	ro, err := NewReadout(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.Place(recs); err != nil {
		t.Fatal(err)
	}
	if err := ro.Place(recs); !errors.Is(err, ErrOverlap) {
		t.Fatalf("duplicate record: err %v, want ErrOverlap", err)
	}
	ro, _ = NewReadout(8)
	if err := ro.Place(append(recs[:len(recs):len(recs)], recs...)); !errors.Is(err, ErrOverlap) {
		t.Fatalf("duplicate record in one batch: err %v, want ErrOverlap", err)
	}
}

// TestReadoutRefusesCorrupt: every field is range-checked before it is
// placed, so no byte string can index outside the slots, shift outside a
// word, or fold a count no sketch can hold.
func TestReadoutRefusesCorrupt(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 2, MinSupport: 1, TopC: 1, MinTopConfidence: 0.8}
	s := MustSketch(cond, Options{Seed: 1, Bitmaps: 8})
	s.Add("a", "b")
	good := s.AppendReadout(nil)
	for _, tc := range []struct {
		name string
		edit func(b []byte) []byte
	}{
		{"short", func(b []byte) []byte { return b[:len(b)-1] }},
		{"index out of range", func(b []byte) []byte { binary.LittleEndian.PutUint32(b, 8); return b }},
		{"lo beyond the cells", func(b []byte) []byte { b[4] = Levels + 1; return b }},
		{"hi below -1", func(b []byte) []byte { b[5] = 0xfe; return b }},
		{"hi beyond the cells", func(b []byte) []byte { b[5] = Levels; return b }},
		{"dead cell outside the fringe", func(b []byte) []byte { b[13] |= 0x80; return b }},
		{"negative census", func(b []byte) []byte { b[21] = 0x80; return b }},
		{"position beyond the cells", func(b []byte) []byte { b[23] = Levels + 1; return b }},
		{"negative multiplicity sum", func(b []byte) []byte { b[40] = 0x80; return b }},
	} {
		ro, _ := NewReadout(8)
		if err := ro.Place(tc.edit(append([]byte(nil), good...))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err %v, want ErrCorrupt", tc.name, err)
		}
	}
	for _, m := range []int{0, 3, 1 << 17} {
		if _, err := NewReadout(m); err == nil {
			t.Errorf("NewReadout(%d) accepted", m)
		}
	}
}

// BenchmarkReadout is the fleet query's per-leaf cost: a leaf's
// AppendReadout of a populated sketch, and the coordinator's Place and
// ImplicationCount over it.
func BenchmarkReadout(b *testing.B) {
	s := benchSketch()
	recs := s.AppendReadout(nil)
	b.Run("AppendReadout", func(b *testing.B) {
		buf := make([]byte, 0, len(recs))
		for range b.N {
			buf = s.AppendReadout(buf[:0])
		}
	})
	b.Run("PlaceAndCount", func(b *testing.B) {
		for range b.N {
			ro, _ := NewReadout(s.Options().Bitmaps)
			if err := ro.Place(recs); err != nil {
				b.Fatal(err)
			}
			benchSink = ro.ImplicationCount()
		}
	})
	b.ReportMetric(float64(len(recs)), "readout-bytes")
}

// TestCellMassIsExp2: the precomputed inclusion masses are the values the
// readers once computed with math.Exp2, so every estimate is unchanged.
func TestCellMassIsExp2(t *testing.T) {
	for j, got := range cellMass {
		if want := math.Exp2(-float64(j + 1)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("cell %d: mass %v, math.Exp2 gives %v", j, got, want)
		}
	}
}
