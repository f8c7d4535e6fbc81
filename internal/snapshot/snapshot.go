// Package snapshot is the estimator registry of the durability subsystem:
// it maps every checkpointable estimator type to a stable kind name and
// frames the estimator's own binary state behind that name, so higher
// layers (the query-engine snapshot, the checkpoint file) can serialize
// estimators without knowing their concrete types — and can report, on
// restore, which algorithm a blob contains.
//
// Kind names are part of the checkpoint format. There are three, two of
// them the CLIs' backend names. "exact" is an exact.Counter at every
// lock stripe count: its state and its encoding do not depend on the count,
// and Unmarshal restores it at the default count. A core.Sketch's count
// changes one thing in its state, the peak word (see
// core.Sketch.PeakMemEntries: a high-water mark at one stripe, the live
// entry count at several), so its kind names that class: "nips" for one
// stripe, restored at one, and "sharded" for several, restored at two or
// more (core.UnmarshalShardedSketch). Either way a restored estimator
// continues bit for bit. Unmarshal still reads "exact-striped", the kind
// earlier builds wrote for a several-stripe exact counter, and refuses
// "ilc" and "ds": the §5 baselines are library-only and have no checkpoint
// form. Wrapper types (window.Sliding, the concurrency wrappers) are not
// leaf estimators and are handled by their own layers; Marshal rejects them
// with a descriptive error rather than producing a partial snapshot.
package snapshot

import (
	"fmt"

	"implicate/internal/core"
	"implicate/internal/exact"
	"implicate/internal/imps"
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
		return "exact", nil
	}
	return "", fmt.Errorf("snapshot: estimator %T cannot be checkpointed", est)
}

// Marshal frames est as its kind name followed by its binary state.
func Marshal(est imps.Estimator) ([]byte, error) {
	kind, err := Kind(est)
	if err != nil {
		return nil, err
	}
	payload, err := est.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
	if err != nil {
		return nil, err
	}
	e := wire.NewEncoder(len(payload) + 16)
	e.Str(kind)
	e.Blob(payload)
	return e.Bytes(), nil
}

// Unmarshal decodes a framed estimator, returning the estimator and the
// kind name it marshals under. Unknown kinds and malformed payloads are
// errors; Unmarshal never fabricates a partially restored estimator.
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
	case "exact", "exact-striped":
		est, err = exact.UnmarshalStriped(payload, 0)
	case "ilc", "ds":
		return nil, "", fmt.Errorf("snapshot: estimator kind %q is a library-only baseline with no checkpoint form", kind)
	default:
		return nil, "", fmt.Errorf("%w: unknown estimator kind %q", wire.ErrCorrupt, kind)
	}
	if err != nil {
		return nil, "", fmt.Errorf("decode %s estimator: %w", kind, err)
	}
	kind, err = Kind(est)
	return est, kind, err
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
