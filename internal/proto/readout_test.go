package proto

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"implicate/internal/core"
	"implicate/internal/imps"
)

// readoutSeeds are real readout replies: an empty sketch's, and a sketch's
// after a stream touched most of its bitmaps.
func readoutSeeds() [][]byte {
	cond := imps.Conditions{MaxMultiplicity: 2, MinSupport: 2, TopC: 1, MinTopConfidence: 0.8}
	s := core.MustSketch(cond, core.Options{Seed: 1, Bitmaps: 16})
	empty := ReadoutResult{Tuples: 0, Bitmaps: 16, Records: s.AppendReadout(nil)}.Encode()
	for i := range 500 {
		s.AddIDs(uint64(i%61), uint64(i%5))
	}
	full := ReadoutResult{Tuples: 500, Bitmaps: 16, Records: s.AppendReadout(nil)}.Encode()
	return [][]byte{empty, full}
}

func TestReadoutCodecs(t *testing.T) {
	full := readoutSeeds()[1]
	r, err := DecodeReadoutResult(full)
	if err != nil || r.Tuples != 500 || r.Bitmaps != 16 || len(r.Records) == 0 {
		t.Fatalf("readout result: %+v %v", r, err)
	}
	if !bytes.Equal(r.Encode(), full) {
		t.Error("readout result did not re-encode to its bytes")
	}
	for n := range len(full) {
		if _, err := DecodeReadoutResult(full[:n]); err == nil {
			t.Fatalf("readout result truncated to %d of %d bytes accepted", n, len(full))
		}
	}
	if _, err := DecodeReadoutResult(append(full, 0)); err == nil {
		t.Error("readout result trailing byte accepted")
	}
	// A record count no remaining input can hold is refused before
	// anything is sized by it: the refusal costs the same few bytes as any
	// other, not 2^31 records' worth.
	// TotalAlloc is process-wide, so the measurement is isolated the way
	// testing.AllocsPerRun isolates its count: one P while it runs, one
	// warm-up call, and the mean over many calls.
	huge := binary.LittleEndian.AppendUint32(append([]byte(nil), full[:12]...), 1<<31)
	refuse := func() {
		if _, err := DecodeReadoutResult(huge); err == nil {
			t.Fatal("record count beyond the input accepted")
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	refuse()
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		refuse()
	}
	runtime.ReadMemStats(&after)
	if n := (after.TotalAlloc - before.TotalAlloc) / runs; n > 4096 {
		t.Errorf("refusing a huge record count allocated %d bytes per refusal", n)
	}
}

// FuzzDecodeReadout: no input panics the readout reply decoder or the
// record placement behind it, a record count is checked against the input
// before use, and whatever decodes re-encodes to the same bytes.
func FuzzDecodeReadout(f *testing.F) {
	for _, seed := range readoutSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReadoutResult(data)
		if err != nil {
			return
		}
		if len(r.Records)%core.ReadoutRecordLen != 0 || 16+len(r.Records) != len(data) {
			t.Fatalf("decoded %d record bytes from a %d-byte reply", len(r.Records), len(data))
		}
		if got := r.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("re-encoded %x, decoded from %x", got, data)
		}
		if ro, err := core.NewReadout(int(r.Bitmaps)); err == nil && ro.Place(r.Records) == nil {
			ro.ImplicationCountInterval(2)
			ro.AvgMultiplicity()
			ro.DistinctCount()
		}
	})
}
