package exact

import (
	"encoding/binary"
	"errors"
	"strconv"
	"testing"

	"implicate/internal/imps"
	"implicate/internal/wire"
)

func feed(c *Counter, start, n int) {
	for i := start; i < start+n; i++ {
		a := strconv.Itoa(i % 97)
		b := strconv.Itoa((i * 7) % 13)
		if i%97 < 20 {
			b = "solo"
		}
		c.Add(a, b)
	}
}

func TestCounterMarshalRoundTrip(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 2, MinSupport: 3, TopC: 1, MinTopConfidence: 0.5}
	c, err := NewCounter(cond)
	if err != nil {
		t.Fatal(err)
	}
	feed(c, 0, 3000)
	if c.NonImplicationCount() == 0 {
		t.Fatal("test stream produced no excluded itemsets; widen it")
	}

	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCounter(blob)
	if err != nil {
		t.Fatal(err)
	}
	assertCountersEqual(t, c, got)

	blob2, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatalf("re-marshalling a restored counter changed the bytes")
	}

	// The ground-truth guarantee: a restored counter continues exactly.
	feed(c, 3000, 1500)
	feed(got, 3000, 1500)
	assertCountersEqual(t, c, got)
}

func assertCountersEqual(t *testing.T, want, got *Counter) {
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
		{"AvgMultiplicity", got.AvgMultiplicity(), want.AvgMultiplicity()},
	}
	for _, p := range pairs {
		if p.got != p.want {
			t.Fatalf("%s: got %g, want %g", p.name, p.got, p.want)
		}
	}
}

func TestUnmarshalCounterRejectsTruncation(t *testing.T) {
	cond := imps.Conditions{MaxMultiplicity: 2, MinSupport: 2, TopC: 1, MinTopConfidence: 0.5}
	c, err := NewCounter(cond)
	if err != nil {
		t.Fatal(err)
	}
	feed(c, 0, 500)
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n++ {
		if _, err := UnmarshalCounter(blob[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(blob))
		}
	}
}

// TestUnmarshalRejectsTupleMismatch: every Add books one tuple on exactly
// one itemset's support, so a blob whose tuple count disagrees with the sum
// of its supports was not written by MarshalBinary, whatever the stripe
// count it is decoded into.
func TestUnmarshalRejectsTupleMismatch(t *testing.T) {
	c := MustCounter(imps.Conditions{MaxMultiplicity: 2, MinSupport: 3, TopC: 1, MinTopConfidence: 0.5})
	for i := 0; i < 10; i++ {
		c.Add(strconv.Itoa(i%3), "b")
	}
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The tuple count follows the magic and the conditions (4+8+4+8 bytes).
	binary.LittleEndian.PutUint64(blob[len(marshalMagic)+24:], 999)
	for _, stripes := range []int{1, 4} {
		if got, err := UnmarshalStriped(blob, stripes); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("stripes=%d: tuple count 999 over supports summing to 10 decoded (%v, err %v)", stripes, got != nil, err)
		}
	}
	if _, err := UnmarshalCounter(blob); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("UnmarshalCounter: err %v, want wire.ErrCorrupt", err)
	}
}

var _ imps.ConfigFingerprinter = (*Counter)(nil)
