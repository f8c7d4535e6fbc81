package core

import (
	"bytes"
	"encoding/hex"
	"testing"

	"implicate/internal/imps"
)

// goldenCond, goldenOpts and goldenStream define the sketch whose encodings
// are pinned below: four bitmaps, a two-cell fringe and a stream short
// enough to read by hand that still leaves a tombstone, a doomed itemset and
// a support-only cell behind.
var (
	goldenCond   = imps.Conditions{MaxMultiplicity: 1, MinSupport: 3, TopC: 1, MinTopConfidence: 0.5}
	goldenOpts   = Options{Bitmaps: 4, FringeSize: 2, Seed: 7}
	goldenStream = [][2]uint64{{0, 0}, {1, 1}, {2, 1}, {3, 0}, {0, 1}, {1, 1}, {2, 0}, {3, 1}, {0, 1}}
)

// goldenNIPS1 is the NIPS\x01 encoding of a Sketch fed goldenStream.
const goldenNIPS1 = "" +
	"4e4950530101000000030000000000000001000000000000000000e03f04000000020000000002000000070000000000" +
	"0000090000000000000007000000000000000000000000000000ffffffffffffffff0000000000000000000000000000" +
	"0000000000000000000000000000000000000000000000000000000000000000000000000000ffffffffffffffff0000" +
	"000000000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000" +
	"000002000000000000000000000000000000000000000000000000000000000000000500000000000000000000000000" +
	"00000200000000010100000036dec53fbf30971b00020000000000000000000000020001000000b275a2cb39da167700" +
	"020000000000000001000000f3aa55f8f5161d7502000000000000000000000000000000000000000000000000000000" +
	"00000000010000000000000001000000000000000100000000000000000000000000000001000000000002000000e7ab" +
	"ff12b561bf64024765ffbc03a980e801020000000000000000000000"

// goldenNIPS2 is the NIPS\x02 encoding earlier builds wrote for a 2-shard
// ShardedSketch fed goldenStream: the global header, the shard count, then
// each shard's length-prefixed NIPS\x01 sub-sketch of m/2 bitmaps.
const goldenNIPS2 = "" +
	"4e4950530201000000030000000000000001000000000000000000e03f04000000020000000002000000070000000000" +
	"000002000000000100004e4950530101000000030000000000000001000000000000000000e03f020000000200000000" +
	"020000000700000000000000040000000000000003000000000000000000000000000000ffffffffffffffff00000000" +
	"000000000000000000000000000000000000000000000000000000000000000000000000000000000100000000000000" +
	"020000000000000000000000000000000000000000000000000000000000000005000000000000000000000000000000" +
	"0200000000010100000036dec53fbf30971b00020000000000000000000000020001000000b275a2cb39da1677000200" +
	"00000000000001000000f3aa55f8f5161d750200000000000000de0000004e4950530101000000030000000000000001" +
	"000000000000000000e03f02000000020000000002000000070000000000000005000000000000000400000000000000" +
	"0000000000000000ffffffffffffffff0000000000000000000000000000000000000000000000000000000000000000" +
	"000000000000000000000000000000000000000000000000000000000000000000000000010000000000000001000000" +
	"000000000100000000000000000000000000000001000000000002000000e7abff12b561bf64024765ffbc03a980e801" +
	"020000000000000000000000"

func goldenBytes(t *testing.T, h string) []byte {
	t.Helper()
	b, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func goldenSketch(t *testing.T) *Sketch {
	t.Helper()
	s := MustSketch(goldenCond, goldenOpts)
	for _, p := range goldenStream {
		s.AddIDs(p[0], p[1])
	}
	var tomb, doomed, suppOnly bool
	for bi := range s.bms {
		for _, c := range s.bms[bi].cells {
			if c != nil {
				tomb = tomb || c.nExcluded > 0
				doomed = doomed || c.nDoomed > 0
				suppOnly = suppOnly || (c.suppOnly && len(c.items) > 0)
			}
		}
	}
	if !tomb || !doomed || !suppOnly {
		t.Fatalf("golden stream lost a feature: tombstone=%v doomed=%v support-only=%v", tomb, doomed, suppOnly)
	}
	return s
}

// TestGoldenNIPS1 pins the single-sketch encoding byte for byte, and checks
// the pinned bytes decode to a sketch that re-encodes to them.
func TestGoldenNIPS1(t *testing.T) {
	got, err := goldenSketch(t).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if h := hex.EncodeToString(got); h != goldenNIPS1 {
		t.Fatalf("NIPS\\x01 encoding drifted:\n got %s\nwant %s", h, goldenNIPS1)
	}
	s, err := UnmarshalSketch(goldenBytes(t, goldenNIPS1))
	if err != nil {
		t.Fatal(err)
	}
	again, _ := s.MarshalBinary()
	if h := hex.EncodeToString(again); h != goldenNIPS1 {
		t.Fatalf("golden NIPS\\x01 does not re-encode to itself:\n got %s", h)
	}
}

// peakOffset is where the 8-byte entry high-water mark sits in NIPS\x01:
// after the magic (5), conditions (24), options (21) and tuple count (8).
const peakOffset = 58

// requireNIPS1ButPeak fails unless got equals want outside the peak field.
func requireNIPS1ButPeak(t *testing.T, got, want []byte) {
	t.Helper()
	g := append([]byte(nil), got...)
	if len(g) >= peakOffset+8 && len(want) >= peakOffset+8 {
		copy(g[peakOffset:peakOffset+8], want[peakOffset:peakOffset+8])
	}
	if !bytes.Equal(g, want) {
		t.Fatalf("encodings differ outside the peak field:\n got %x\nwant %x", got, want)
	}
}

// TestGoldenNIPS2 decodes the pinned sharded encoding of a 2-shard sketch
// fed the golden stream, which earlier builds wrote and checkpoints may
// still hold, and checks it is the golden single sketch: the same NIPS\x01
// bytes outside the peak field. A sharded sketch fed the stream today
// writes those bytes itself.
func TestGoldenNIPS2(t *testing.T) {
	restored, err := UnmarshalShardedSketch(goldenBytes(t, goldenNIPS2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	requireNIPS1ButPeak(t, got, goldenBytes(t, goldenNIPS1))

	ss, err := NewShardedSketch(goldenCond, goldenOpts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range goldenStream {
		ss.AddIDs(p[0], p[1])
	}
	fresh, err := ss.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, got) {
		t.Fatalf("a fed 2-shard sketch encodes differently from the decoded golden NIPS\\x02:\n got %x\nwant %x", fresh, got)
	}
}

// goldenReadout is the readout of the golden sketch, one record per line:
// bitmaps 0 and 1 never observed a tuple and send none; bitmap 2's fringe is
// [1,2] with cells 0 and 2 hashed into; bitmap 3's is [0,0], its one cell
// set by the tombstoned itemset.
const goldenReadout = "" +
	"02000000" + "01" + "02" + "0000000000000000" + "0000000000000000" + "000001" + "0000000000000000" + "0000000000000000" +
	"03000000" + "00" + "00" + "0000000000000000" + "0000000000000000" + "010101" + "0000000000000000" + "0000000000000000"

// TestGoldenReadout pins the readout records of the golden sketch.
func TestGoldenReadout(t *testing.T) {
	if h := hex.EncodeToString(goldenSketch(t).AppendReadout(nil)); h != goldenReadout {
		t.Fatalf("readout encoding drifted:\n got %s\nwant %s", h, goldenReadout)
	}
}
