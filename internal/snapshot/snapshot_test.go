package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"implicate/internal/core"
	"implicate/internal/exact"
	"implicate/internal/imps"
	"implicate/internal/wire"
)

var testCond = imps.Conditions{MaxMultiplicity: 2, MinSupport: 3, TopC: 1, MinTopConfidence: 0.5}

// feed gives est the small stream every registry test uses, its A-itemsets
// numbered from off.
func feed(est imps.Estimator, off int) imps.Estimator {
	for i := 0; i < 600; i++ {
		b := fmt.Sprintf("b%d", (i*7)%5)
		if i%23 < 6 {
			b = "solo"
		}
		est.Add(fmt.Sprintf("a%d", off+i%23), b)
	}
	return est
}

// sketchAt and counterAt build the two registered estimators at a given
// lock stripe count.
func sketchAt(t testing.TB, stripes int) *core.Sketch {
	t.Helper()
	sk, err := core.NewShardedSketch(testCond, core.Options{Bitmaps: 8, Seed: 3}, stripes)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func counterAt(t testing.TB, stripes int) *exact.Counter {
	t.Helper()
	c, err := exact.NewStriped(testCond, stripes)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// everyKind builds one estimator of each registered kind, fed the same
// small stream.
func everyKind(t testing.TB) map[string]imps.Estimator {
	return map[string]imps.Estimator{
		"nips":    feed(sketchAt(t, 1), 0),
		"sharded": feed(sketchAt(t, 2), 0),
		"exact":   feed(counterAt(t, 1), 0),
	}
}

// TestRoundTripEveryKind: every registered kind frames, decodes under its
// own name to an estimator that answers identically, and re-marshals to the
// same bytes.
func TestRoundTripEveryKind(t *testing.T) {
	for kind, est := range everyKind(t) {
		if k, err := Kind(est); err != nil || k != kind {
			t.Fatalf("Kind(%T) = %q, %v; want %q", est, k, err, kind)
		}
		blob, err := Marshal(est)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		got, gotKind, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if gotKind != kind {
			t.Fatalf("decoded kind %q, want %q", gotKind, kind)
		}
		if got.ImplicationCount() != est.ImplicationCount() || got.Tuples() != est.Tuples() || got.MemEntries() != est.MemEntries() {
			t.Fatalf("%s: restored estimator answers differently", kind)
		}
		if cond, ok := Conditions(got); !ok || cond != testCond {
			t.Fatalf("%s: conditions %v, %v", kind, cond, ok)
		}
		again, err := Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("%s: re-marshalling a restored estimator changed the bytes", kind)
		}
	}
}

// peakOffset is where NIPS\x01 keeps its 8-byte entry high-water mark: after
// the magic (5), the conditions (24), the options (21) and the tuple count
// (8).
const peakOffset = 58

// payloadOf unframes a Marshal result, checking its kind.
func payloadOf(t *testing.T, blob []byte, kind string) []byte {
	t.Helper()
	d := wire.NewDecoder(blob)
	got := d.Str(64)
	payload := d.Blob(MaxEstimatorBlob)
	if err := d.Done(); err != nil || got != kind {
		t.Fatalf("frame kind %q, %v; want %q", got, err, kind)
	}
	return payload
}

// TestKindAtEveryStripeCount: fed the same stream, an exact counter
// marshals to the same "exact" bytes at one and at four stripes, and a
// sketch to the same "sharded" bytes at two and at four. A one-stripe
// sketch is "nips", and its payload differs from theirs in the peak word
// alone: the entry high-water mark one stripe keeps, where several report
// the live entry count.
func TestKindAtEveryStripeCount(t *testing.T) {
	one, err := Marshal(feed(counterAt(t, 1), 0))
	if err != nil {
		t.Fatal(err)
	}
	four, err := Marshal(feed(counterAt(t, 4), 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, four) {
		t.Fatal("an exact counter marshals differently at one and four stripes")
	}
	payloadOf(t, one, "exact")

	var want []byte
	for _, n := range []int{2, 4} {
		blob, err := Marshal(feed(sketchAt(t, n), 0))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = blob
		} else if !bytes.Equal(blob, want) {
			t.Fatalf("a sketch marshals differently at %d stripes and at two", n)
		}
	}
	sk := feed(sketchAt(t, 1), 0).(*core.Sketch)
	if sk.PeakMemEntries() <= sk.MemEntries() {
		t.Fatal("the stream must retire entries, or the peak word shows nothing")
	}
	blob, err := Marshal(sk)
	if err != nil {
		t.Fatal(err)
	}
	payload, several := payloadOf(t, blob, "nips"), payloadOf(t, want, "sharded")
	if peak := binary.LittleEndian.Uint64(payload[peakOffset:]); peak != uint64(sk.PeakMemEntries()) {
		t.Fatalf("one stripe: peak word %d, PeakMemEntries %d", peak, sk.PeakMemEntries())
	}
	if peak := binary.LittleEndian.Uint64(several[peakOffset:]); peak != uint64(sk.MemEntries()) {
		t.Fatalf("several stripes: peak word %d, want the live entry count %d", peak, sk.MemEntries())
	}
	copy(payload[peakOffset:peakOffset+8], several[peakOffset:])
	if !bytes.Equal(payload, several) {
		t.Fatal("one and several stripes marshal a sketch differently outside the peak word")
	}
}

// TestRestoreContinuesBitForBit: at every stripe count, and at any
// GOMAXPROCS, a restored estimator fed the rest of the stream marshals to
// the bytes of the one that was never marshalled. A "nips" sketch restores
// at one stripe, so it keeps its high-water mark; a "sharded" one at two or
// more.
func TestRestoreContinuesBitForBit(t *testing.T) {
	for _, c := range []struct {
		kind    string
		stripes int
		est     imps.Estimator
	}{
		{"nips", 1, sketchAt(t, 1)},
		{"sharded", 2, sketchAt(t, 2)},
		{"sharded", 4, sketchAt(t, 4)},
		{"exact", 1, counterAt(t, 1)},
		{"exact", 4, counterAt(t, 4)},
	} {
		live := feed(c.est, 0)
		blob, err := Marshal(live)
		if err != nil {
			t.Fatal(err)
		}
		restored, kind, err := Unmarshal(blob)
		if err != nil || kind != c.kind {
			t.Fatalf("%s: restored as %q, %v", c.kind, kind, err)
		}
		if sk, ok := restored.(*core.Sketch); ok && (sk.Shards() > 1) != (kind == "sharded") {
			t.Fatalf("%s: restored at %d stripes", kind, sk.Shards())
		}
		want, err := Marshal(feed(live, 40))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Marshal(feed(restored, 40))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s at %d stripes: the restored estimator continues differently", kind, c.stripes)
		}
	}
}

// legacyShardedPayload is a NIPS\x02 sharded-sketch encoding, the format
// earlier builds wrote for the "sharded" kind (two shards, m=4). Builds
// still decode it.
const legacyShardedPayload = "" +
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

// legacyStripedPayload is an EXCS\x01 striped exact-counter encoding, the
// format earlier builds wrote for the "exact-striped" kind (four stripes,
// testCond, fed stripedStream). Builds still decode it.
const legacyStripedPayload = "" +
	"455843530102000000030000000000000001000000000000000000e03f28000000000000000500000002000000613008" +
	"00000000000000000100000004000000736f6c6f08000000000000000200000061310800000000000000000100000004" +
	"000000736f6c6f0800000000000000020000006132080000000000000001020000006133080000000000000001020000" +
	"006134080000000000000001"

// stripedStream is the stream legacyStripedPayload was captured from: five
// itemsets, two with a single partner, three excluded at multiplicity 3.
func stripedStream(est imps.Estimator) {
	for i := 0; i < 40; i++ {
		b := fmt.Sprintf("b%d", (i*7)%3)
		if i%5 < 2 {
			b = "solo"
		}
		est.Add(fmt.Sprintf("a%d", i%5), b)
	}
}

// TestLegacyStripedPayload: an "exact-striped" checkpoint slot an earlier
// build wrote restores, under the "exact" kind, to the state a one-stripe
// counter fed the same stream holds, and re-encodes to that counter's
// bytes.
func TestLegacyStripedPayload(t *testing.T) {
	legacy, err := hex.DecodeString(legacyStripedPayload)
	if err != nil {
		t.Fatal(err)
	}
	est, kind, err := Unmarshal(frame("exact-striped", legacy))
	if err != nil || kind != "exact" {
		t.Fatalf("decode: kind %q, %v", kind, err)
	}
	ref := exact.MustCounter(testCond)
	stripedStream(ref)
	want, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.(*exact.Counter).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("legacy payload re-encodes to\n %x\nwant\n %x", got, want)
	}
	if !bytes.Equal(got[5:], legacy[5:]) {
		t.Fatal("EXCT body differs from the EXCS body it was decoded from")
	}
}

// frame wraps a raw payload under a kind name, as Marshal does.
func frame(kind string, payload []byte) []byte {
	e := wire.NewEncoder(len(payload) + 16)
	e.Str(kind)
	e.Blob(payload)
	return e.Bytes()
}

// FuzzSnapshotUnmarshal holds the registry's decode contract over hostile
// input: Unmarshal never panics, and anything it accepts re-marshals to a
// fixed point after one round trip.
func FuzzSnapshotUnmarshal(f *testing.F) {
	for _, est := range everyKind(f) {
		blob, err := Marshal(est)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, est := range []imps.Estimator{feed(sketchAt(f, 4), 0), feed(counterAt(f, 4), 0)} {
		blob, err := Marshal(est)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	legacy, err := hex.DecodeString(legacyShardedPayload)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame("sharded", legacy))
	legacy, err = hex.DecodeString(legacyStripedPayload)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame("exact-striped", legacy))
	f.Add(frame("exact", legacy))
	f.Add(frame("sharded", nil))
	f.Add(frame("ilc", nil))
	f.Add(frame("ds", nil))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		est, kind, err := Unmarshal(data)
		if err != nil {
			return
		}
		once, err := Marshal(est)
		if err != nil {
			t.Fatalf("decoded %s estimator does not re-marshal: %v", kind, err)
		}
		est2, kind2, err := Unmarshal(once)
		if err != nil || kind2 != kind {
			t.Fatalf("re-marshalled %s estimator decodes as %q: %v", kind, kind2, err)
		}
		twice, err := Marshal(est2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("%s encoding is not a fixed point after one round trip", kind)
		}
	})
}
