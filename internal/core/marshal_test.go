package core

import (
	"math/rand"
	"testing"

	"implicate/internal/imps"
)

func loadedSketch(t *testing.T, opts Options) *Sketch {
	t.Helper()
	cond := imps.Conditions{MaxMultiplicity: 2, MinSupport: 4, TopC: 1, MinTopConfidence: 0.75}
	s := MustSketch(cond, opts)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 30000; i++ {
		s.AddIDs(uint64(rng.Intn(3000)), uint64(rng.Intn(6)))
	}
	return s
}

func sameEstimates(t *testing.T, a, b *Sketch) {
	t.Helper()
	if a.ImplicationCount() != b.ImplicationCount() {
		t.Errorf("ImplicationCount %v vs %v", a.ImplicationCount(), b.ImplicationCount())
	}
	if a.NonImplicationCount() != b.NonImplicationCount() {
		t.Errorf("NonImplicationCount %v vs %v", a.NonImplicationCount(), b.NonImplicationCount())
	}
	if a.SupportedDistinct() != b.SupportedDistinct() {
		t.Errorf("SupportedDistinct %v vs %v", a.SupportedDistinct(), b.SupportedDistinct())
	}
	if a.DistinctCount() != b.DistinctCount() {
		t.Errorf("DistinctCount %v vs %v", a.DistinctCount(), b.DistinctCount())
	}
	if a.Tuples() != b.Tuples() {
		t.Errorf("Tuples %v vs %v", a.Tuples(), b.Tuples())
	}
	if a.MemEntries() != b.MemEntries() {
		t.Errorf("MemEntries %v vs %v", a.MemEntries(), b.MemEntries())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, opts := range []Options{
		{Seed: 1},
		{Seed: 2, Bitmaps: 16, FringeSize: 3, Slack: 1},
		{Seed: 3, Unbounded: true},
	} {
		s := loadedSketch(t, opts)
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := UnmarshalSketch(data)
		if err != nil {
			t.Fatal(err)
		}
		sameEstimates(t, s, restored)
		if restored.Conditions() != s.Conditions() || restored.Options() != s.Options() {
			t.Fatal("configuration not restored")
		}
	}
}

// TestMarshalContinuation checks that a restored sketch keeps streaming
// with state identical to one that was never serialized.
func TestMarshalContinuation(t *testing.T) {
	a := loadedSketch(t, Options{Seed: 5})
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := UnmarshalSketch(data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		x, y := uint64(rng.Intn(5000)), uint64(rng.Intn(8))
		a.AddIDs(x, y)
		b.AddIDs(x, y)
	}
	sameEstimates(t, a, b)
}

// TestMarshalMergeAfterRestore exercises the checkpoint-then-aggregate
// workflow: serialize on one node, restore and merge on another.
func TestMarshalMergeAfterRestore(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 1, MinSupport: 2, TopC: 1, MinTopConfidence: 1.0}
	opts := Options{Seed: 9}
	remote := MustSketch(cond, opts)
	local := MustSketch(cond, opts)
	for i := 0; i < 500; i++ {
		remote.AddIDs(uint64(i), 1)
		remote.AddIDs(uint64(i), 1)
		local.AddIDs(uint64(10000+i), 2)
		local.AddIDs(uint64(10000+i), 2)
	}
	data, err := remote.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalSketch(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Merge(restored); err != nil {
		t.Fatal(err)
	}
	got := local.ImplicationCount()
	if got < 800 || got > 1250 {
		t.Fatalf("merged count %v, want ≈1000", got)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	s := loadedSketch(t, Options{Seed: 11})
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSketch(nil); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := UnmarshalSketch([]byte("BOGUS")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := UnmarshalSketch(data[:len(data)/2]); err == nil {
		t.Error("truncated input accepted")
	}
	if _, err := UnmarshalSketch(append(append([]byte(nil), data...), 0xFF)); err == nil {
		t.Error("trailing garbage accepted")
	}
	// Non-canonical encodings would decode and then re-encode to different
	// bytes. One bitmap holding one doomed itemset lays out as: Unbounded
	// after the magic, conditions and bitmap/fringe counts (5+24+8); the
	// cell's suppOnly after the header, counts (16), the bitmap's three
	// positions and four bit words (56), its cell count (4) and the cell
	// index (1); then the item count (4), hash (8), kind (1), support (8)
	// and, last in the encoding, the item's pair count.
	one := MustSketch(imps.Conditions{MaxMultiplicity: 1, MinSupport: 10, TopC: 1, MinTopConfidence: 0.5}, Options{Bitmaps: 1, Seed: 1})
	one.AddIDs(1, 1)
	one.AddIDs(1, 2)
	oneData, err := one.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const suppOnlyOff = 50 + 16 + 56 + 4 + 1
	const kindOff = suppOnlyOff + 1 + 4 + 8
	if oneData[kindOff] != 1 || len(oneData) != kindOff+1+8+4 {
		t.Fatalf("unexpected layout: kind byte %d, %d bytes", oneData[kindOff], len(oneData))
	}
	for _, off := range []int{37, suppOnlyOff} {
		if oneData[off] != 0 {
			t.Fatalf("byte %d is %d, not a false bool", off, oneData[off])
		}
		mut := append([]byte(nil), oneData...)
		mut[off] = 2
		if _, err := UnmarshalSketch(mut); err == nil {
			t.Errorf("bool byte 2 at offset %d accepted", off)
		}
	}
	mut := append([]byte(nil), oneData...)
	mut[len(mut)-4] = 1                    // the doomed itemset claims one pair counter
	mut = append(mut, make([]byte, 16)...) // and carries its bytes
	if _, err := UnmarshalSketch(mut); err == nil {
		t.Error("doomed itemset with pair counters accepted")
	}
	// Flipping a byte in the options region must be caught by validation or
	// produce a decode error, never a panic.
	for off := 5; off < 40 && off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xFF
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic decoding mutation at offset %d: %v", off, r)
				}
			}()
			_, _ = UnmarshalSketch(mut)
		}()
	}
}
