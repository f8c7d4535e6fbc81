package core

import (
	"strconv"
	"testing"

	"implicate/internal/imps"
)

func feedSharded(est interface{ Add(a, b string) }, start, n int) {
	for i := start; i < start+n; i++ {
		a := strconv.Itoa(i % 257)
		b := strconv.Itoa((i * 7) % 31)
		if i%257 < 40 {
			b = "solo"
		}
		est.Add(a, b)
	}
}

func TestShardedMarshalRoundTrip(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 2, MinSupport: 3, TopC: 1, MinTopConfidence: 0.5}
	opts := Options{Bitmaps: 64, Seed: 42}
	ss, err := NewShardedSketch(cond, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	feedSharded(ss, 0, 5000)

	blob, err := ss.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalShardedSketch(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Options() != ss.Options() || got.Conditions() != ss.Conditions() {
		t.Fatalf("geometry mismatch after round trip")
	}
	assertShardedEqual(t, ss, got)

	blob2, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatalf("re-marshalling a restored sketch changed the bytes")
	}

	// A restored sketch must continue streaming bit-identically.
	feedSharded(ss, 5000, 2000)
	feedSharded(got, 5000, 2000)
	assertShardedEqual(t, ss, got)
}

func assertShardedEqual(t *testing.T, want, got *ShardedSketch) {
	t.Helper()
	if got.Tuples() != want.Tuples() {
		t.Fatalf("Tuples: got %d, want %d", got.Tuples(), want.Tuples())
	}
	if got.MemEntries() != want.MemEntries() {
		t.Fatalf("MemEntries: got %d, want %d", got.MemEntries(), want.MemEntries())
	}
	pairs := []struct {
		name      string
		got, want float64
	}{
		{"ImplicationCount", got.ImplicationCount(), want.ImplicationCount()},
		{"NonImplicationCount", got.NonImplicationCount(), want.NonImplicationCount()},
		{"SupportedDistinct", got.SupportedDistinct(), want.SupportedDistinct()},
		{"DistinctCount", got.DistinctCount(), want.DistinctCount()},
		{"AvgMultiplicity", got.AvgMultiplicity(), want.AvgMultiplicity()},
	}
	for _, p := range pairs {
		if p.got != p.want {
			t.Fatalf("%s: got %g, want %g", p.name, p.got, p.want)
		}
	}
}

func TestShardedUnmarshalRejectsTruncation(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 2, MinSupport: 2, TopC: 1, MinTopConfidence: 0.5}
	ss, err := NewShardedSketch(cond, Options{Bitmaps: 16, Seed: 7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	feedSharded(ss, 0, 800)
	blob, err := ss.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n++ {
		if _, err := UnmarshalShardedSketch(blob[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(blob))
		}
	}
}

// TestShardedUnmarshalRejectsBadShardCount corrupts the shard count of the
// golden NIPS\x02 vector, the one format that still carries it.
func TestShardedUnmarshalRejectsBadShardCount(t *testing.T) {
	blob := goldenBytes(t, goldenNIPS2)
	if _, err := UnmarshalShardedSketch(blob); err != nil {
		t.Fatalf("golden vector rejected: %v", err)
	}
	// Shard count sits after the 5-byte magic, conditions (24) and options
	// (21).
	const off = 5 + 24 + 21
	if blob[off] != 2 {
		t.Fatalf("byte %d is %d, not the shard count 2", off, blob[off])
	}
	for _, bad := range []byte{0, 1, 3, 8} {
		mut := append([]byte(nil), blob...)
		mut[off] = bad
		if _, err := UnmarshalShardedSketch(mut); err == nil {
			t.Fatalf("shard count %d accepted", bad)
		}
	}
}

var (
	_ imps.ConfigFingerprinter = (*ShardedSketch)(nil)
	_ imps.ConfigFingerprinter = (*Sketch)(nil)
)
