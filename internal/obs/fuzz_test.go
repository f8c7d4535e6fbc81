package obs

import (
	"math"
	"testing"
	"time"

	"implicate/internal/imps"
)

// sameReport compares two health reports field by field, floats by their
// bits, so a NaN read back as the same NaN counts as equal.
func sameReport(a, b imps.HealthReport) bool {
	bits := func(h *imps.HealthReport) [3]uint64 {
		fs := [3]uint64{math.Float64bits(h.BitmapFill), math.Float64bits(h.LeftmostZero), math.Float64bits(h.RelErr)}
		h.BitmapFill, h.LeftmostZero, h.RelErr = 0, 0, 0
		return fs
	}
	fa, fb := bits(&a), bits(&b)
	return fa == fb && a == b
}

// FuzzDecodeHealth feeds arbitrary bytes to the Health RPC's decoder, which
// a coordinator and imptop run on every leaf's reply. It must never panic,
// and whatever decodes must survive being encoded and decoded again
// unchanged.
func FuzzDecodeHealth(f *testing.F) {
	reports := sampleHealth()
	full := EncodeHealth(reports)
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(EncodeHealth(nil))
	reports[0].BitmapFill = math.NaN()
	f.Add(EncodeHealth(reports[:1]))
	f.Add([]byte(healthMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeHealth(data)
		if err != nil {
			return
		}
		again, err := DecodeHealth(EncodeHealth(got))
		if err != nil {
			t.Fatalf("re-encoded health dump does not decode: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("re-decoded %d reports, first decode had %d", len(again), len(got))
		}
		for i := range got {
			if !sameReport(again[i], got[i]) {
				t.Fatalf("report %d changed through encode and decode:\n got %+v\nwant %+v", i, again[i], got[i])
			}
		}
	})
}

// FuzzDecodeFleetTrace feeds arbitrary bytes to the Trace RPC's decoder,
// which a coordinator runs on every leaf's span dump. It must never panic,
// and whatever decodes must survive being encoded and decoded again
// unchanged.
func FuzzDecodeFleetTrace(f *testing.F) {
	tr := NewTracer(8)
	base := time.Unix(0, 1_700_000_000_000_000_000)
	tr.Record(SpanPlan, -1, 1000, base, 5*time.Microsecond)
	tr.Record(SpanApply, 1, 250, base.Add(time.Millisecond), 80*time.Microsecond)
	tr.RecordLinked(Link{Trace: 7, Parent: 3}, SpanDispatch, -1, 1000, base, time.Microsecond)
	var spans []FleetSpan
	for _, sp := range tr.Snapshot() {
		spans = append(spans, FleetSpan{Span: sp})
	}
	spans = append(spans, FleetSpan{Node: "coord", Span: Span{Seq: 9, Kind: SpanDeliver, Arg: 2, Units: 64, Trace: 7, ID: 3}})
	full := EncodeFleetTrace(spans)
	f.Add(full)
	f.Add(full[:len(full)-1])
	f.Add(EncodeFleetTrace(nil))
	f.Add([]byte(fleetMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeFleetTrace(data)
		if err != nil {
			return
		}
		again, err := DecodeFleetTrace(EncodeFleetTrace(got))
		if err != nil {
			t.Fatalf("re-encoded span dump does not decode: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("re-decoded %d spans, first decode had %d", len(again), len(got))
		}
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("span %d changed through encode and decode:\n got %+v\nwant %+v", i, again[i], got[i])
			}
		}
	})
}
