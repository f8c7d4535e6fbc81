package snapshot

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"

	"implicate/internal/core"
	"implicate/internal/dsample"
	"implicate/internal/exact"
	"implicate/internal/imps"
	"implicate/internal/lossy"
	"implicate/internal/wire"
)

var testCond = imps.Conditions{MaxMultiplicity: 2, MinSupport: 3, TopC: 1, MinTopConfidence: 0.5}

// everyKind builds one estimator of each registered kind, fed the same
// small stream.
func everyKind(t testing.TB) map[string]imps.Estimator {
	t.Helper()
	ests := map[string]imps.Estimator{}
	add := func(kind string, est imps.Estimator, err error) {
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		ests[kind] = est
	}
	sk, err := core.NewSketch(testCond, core.Options{Bitmaps: 8, Seed: 3})
	add("nips", sk, err)
	ss, err := core.NewShardedSketch(testCond, core.Options{Bitmaps: 8, Seed: 3}, 2)
	add("sharded", ss, err)
	ex, err := exact.NewCounter(testCond)
	add("exact", ex, err)
	st, err := exact.NewStriped(testCond, 4)
	add("exact-striped", st, err)
	ilc, err := lossy.NewILC(testCond, 0.02, 0.02)
	add("ilc", ilc, err)
	ds, err := dsample.New(testCond, 64, 8, 5)
	add("ds", ds, err)
	for _, est := range ests {
		for i := 0; i < 600; i++ {
			b := fmt.Sprintf("b%d", (i*7)%5)
			if i%23 < 6 {
				b = "solo"
			}
			est.Add(fmt.Sprintf("a%d", i%23), b)
		}
	}
	return ests
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
	legacy, err := hex.DecodeString(legacyShardedPayload)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame("sharded", legacy))
	f.Add(frame("sharded", nil))
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
