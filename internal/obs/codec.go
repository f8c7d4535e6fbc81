package obs

import (
	"fmt"

	"implicate/internal/imps"
	"implicate/internal/wire"
)

// The Health RPC payload encoding. Like the telemetry snapshot (and unlike
// ingest batches), it has a versioned magic of its own: the frame layer
// authenticates bytes, the payload codec proves structure. The Trace RPC's
// payload is the fleet-trace layout (fleet.go) on every node.
const healthMagic = "IMPH\x01"

// maxHealthReports bounds a decoded health dump — one report per registered
// statement, so anything huge is corruption, not scale.
const maxHealthReports = 1 << 16

// EncodeHealth serializes the engine's health reports for the Health RPC.
func EncodeHealth(reports []imps.HealthReport) []byte {
	e := wire.NewEncoder(16 + len(reports)*128)
	e.Raw([]byte(healthMagic))
	e.U32(uint32(len(reports)))
	for i := range reports {
		h := &reports[i]
		e.U32(uint32(h.Stmt))
		e.Str(h.Kind)
		e.Str(h.Query)
		e.Bool(h.Shared)
		e.I64(h.Tuples)
		e.I64(int64(h.MemEntries))
		e.I64(h.MemBytes)
		e.F64(h.BitmapFill)
		e.F64(h.LeftmostZero)
		e.I64(int64(h.FringeTracked))
		e.I64(int64(h.FringePairs))
		e.I64(int64(h.FringeTombstones))
		e.I64(h.FringeEvictions)
		e.I64(int64(h.FringeWidth))
		e.F64(h.RelErr)
	}
	return e.Bytes()
}

// DecodeHealth parses a health dump, rejecting structurally implausible
// input. Non-finite RelErr values are legitimate (an empty estimator
// reports +Inf — it cannot bound its error), so floats are not validated
// beyond their encoding.
func DecodeHealth(data []byte) ([]imps.HealthReport, error) {
	d := wire.NewDecoder(data)
	d.Magic(healthMagic)
	n := d.Count(64)
	if d.Err() == nil && n > maxHealthReports {
		return nil, fmt.Errorf("%w: health dump claims %d reports", wire.ErrCorrupt, n)
	}
	var reports []imps.HealthReport
	if d.Err() == nil && n > 0 {
		reports = make([]imps.HealthReport, n)
		for i := 0; i < n; i++ {
			h := &reports[i]
			h.Stmt = int(d.U32())
			h.Kind = d.Str(256)
			h.Query = d.Str(1 << 16)
			h.Shared = d.Bool()
			h.Tuples = d.I64()
			h.MemEntries = int(d.I64())
			h.MemBytes = d.I64()
			h.BitmapFill = d.F64()
			h.LeftmostZero = d.F64()
			h.FringeTracked = int(d.I64())
			h.FringePairs = int(d.I64())
			h.FringeTombstones = int(d.I64())
			h.FringeEvictions = d.I64()
			h.FringeWidth = int(d.I64())
			h.RelErr = d.F64()
			if h.Tuples < 0 || h.MemEntries < 0 || h.MemBytes < 0 {
				d.Failf("negative health counter in report %d", i)
			}
		}
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return reports, nil
}
