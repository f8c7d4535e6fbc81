// Package snapshot is the estimator registry of the durability subsystem:
// it maps every checkpointable estimator type to a stable kind name and
// frames the estimator's own binary state behind that name, so higher
// layers (the query-engine snapshot, the checkpoint file) can serialize
// estimators without knowing their concrete types — and can report, on
// restore, which algorithm a blob contains.
//
// Kind names are part of the checkpoint format and deliberately match the
// backend names the CLIs expose: "nips", "exact", "ilc", "ds" — plus
// "sharded" and "exact-striped", the kinds of a sketch and of an exact
// counter with more than one lock stripe, which earlier builds built from
// backends of those names and which the "nips" and "exact" backends build
// today. The kind name is the only stripe-count hint a restore gets.
// Wrapper types (window.Sliding, the concurrency wrappers) are not leaf
// estimators and are handled by their own layers; Marshal rejects them
// with a descriptive error rather than producing a partial snapshot.
package snapshot

import (
	"fmt"

	"implicate/internal/core"
	"implicate/internal/dsample"
	"implicate/internal/exact"
	"implicate/internal/imps"
	"implicate/internal/lossy"
	"implicate/internal/wire"
)

// MaxEstimatorBlob bounds a single framed estimator payload (1 GiB); a
// corrupt length field can never demand more.
const MaxEstimatorBlob = 1 << 30

// Kind returns the registry name of est's concrete type, or an error when
// the estimator cannot be checkpointed.
func Kind(est imps.Estimator) (string, error) {
	switch est := est.(type) {
	case *core.Sketch:
		if est.Shards() > 1 {
			return "sharded", nil
		}
		return "nips", nil
	case *exact.Counter:
		if est.Stripes() > 1 {
			return "exact-striped", nil
		}
		return "exact", nil
	case *lossy.ILC:
		return "ilc", nil
	case *dsample.Sketch:
		return "ds", nil
	}
	return "", fmt.Errorf("snapshot: estimator %T cannot be checkpointed", est)
}

// Marshal frames est as its kind name followed by its binary state.
func Marshal(est imps.Estimator) ([]byte, error) {
	kind, err := Kind(est)
	if err != nil {
		return nil, err
	}
	m, ok := est.(interface{ MarshalBinary() ([]byte, error) })
	if !ok {
		return nil, fmt.Errorf("snapshot: estimator %T has no binary form", est)
	}
	payload, err := m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	e := wire.NewEncoder(len(payload) + 16)
	e.Str(kind)
	e.Blob(payload)
	return e.Bytes(), nil
}

// Unmarshal decodes a framed estimator, returning the estimator and its
// kind name. Unknown kinds and malformed payloads are errors; Unmarshal
// never fabricates a partially restored estimator.
func Unmarshal(data []byte) (imps.Estimator, string, error) {
	d := wire.NewDecoder(data)
	kind := d.Str(64)
	payload := d.Blob(MaxEstimatorBlob)
	if err := d.Done(); err != nil {
		return nil, "", err
	}
	var (
		est imps.Estimator
		err error
	)
	switch kind {
	case "nips":
		est, err = core.UnmarshalSketch(payload)
	case "sharded":
		est, err = core.UnmarshalShardedSketch(payload)
	case "exact":
		est, err = exact.UnmarshalCounter(payload)
	case "exact-striped":
		est, err = exact.UnmarshalStriped(payload, 0)
	case "ilc":
		est, err = lossy.UnmarshalILC(payload)
	case "ds":
		est, err = dsample.UnmarshalSketch(payload)
	default:
		return nil, "", fmt.Errorf("%w: unknown estimator kind %q", wire.ErrCorrupt, kind)
	}
	if err != nil {
		return nil, "", fmt.Errorf("decode %s estimator: %w", kind, err)
	}
	return est, kind, nil
}

// Conditions returns the implication conditions a restored estimator was
// built with. Every registered kind exposes them; the engine uses this to
// cross-check a decoded estimator against the query it is wired to.
func Conditions(est imps.Estimator) (imps.Conditions, bool) {
	c, ok := est.(interface{ Conditions() imps.Conditions })
	if !ok {
		return imps.Conditions{}, false
	}
	return c.Conditions(), true
}
