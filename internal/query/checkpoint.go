package query

import (
	"fmt"

	"implicate/internal/imps"
	"implicate/internal/snapshot"
	"implicate/internal/stream"
	"implicate/internal/window"
	"implicate/internal/wire"
)

// Engine snapshots: the serialized form of a whole engine — every
// statement's query, the estimator-sharing topology, each owned estimator's
// state (leaf or sliding-window vector) and the tuple count — from which
// UnmarshalEngine rebuilds an engine that continues the stream exactly
// where the original left off.
//
// Queries are stored in the SQL-like dialect plus an explicit mode byte
// (CountSupported renders identically to CountImplications, so the text
// alone is ambiguous). Shared statements store the index of the statement
// whose estimator they alias instead of duplicating its state.

const engineMagic = "IMPE\x01"

const (
	estLeaf    = 0
	estSliding = 1
)

// BackendResolver supplies the estimator factory used to rebuild a restored
// statement's backend. It is consulted only for windowed statements — a
// sliding vector must construct fresh estimators for future origins, and
// state alone cannot say how — with the statement's normalized query and the
// snapshot kind of its first checkpointed slot: "nips" or "sharded" for a
// sketch at one or at several stripes (checkpoint.Restore passes "nips" for
// both), "exact" for an exact counter at any count. The resolver's backend
// must produce estimators whose configuration matches the checkpointed
// ones; UnmarshalEngine verifies this by fingerprint and rejects
// mismatches.
type BackendResolver func(q Query, kind string) (Backend, error)

// leafEstimator returns an estimator representative of est's capabilities
// and configuration: a slot estimator for a sliding vector, est itself
// otherwise.
func leafEstimator(est imps.Estimator) imps.Estimator {
	if s, ok := est.(*window.Sliding); ok {
		if slots := s.Slots(); len(slots) > 0 {
			return slots[0].Est
		}
	}
	return est
}

// EstimatorKind returns the snapshot registry name of the statement's leaf
// estimator ("nips" for a sketch with one lock stripe, "sharded" for one
// with several, "exact" for an exact counter at any count), or "" when the
// estimator cannot be checkpointed.
func (st *Statement) EstimatorKind() string {
	kind, err := snapshot.Kind(leafEstimator(st.est))
	if err != nil {
		return ""
	}
	return kind
}

// Shared reports whether the statement reads another statement's estimator.
func (st *Statement) Shared() bool { return st.shared }

// MarshalBinary encodes the complete engine state. Every owned estimator
// must be a checkpointable kind — a statement bound to an estimator the
// snapshot registry does not know is an error, never a silent omission.
func (e *Engine) MarshalBinary() ([]byte, error) {
	enc := wire.NewEncoder(4096)
	enc.Raw([]byte(engineMagic))

	names := e.schema.Names()
	enc.U32(uint32(len(names)))
	for _, n := range names {
		enc.Str(n)
	}
	enc.I64(e.tuples.Load())

	enc.U32(uint32(len(e.stmts)))
	for i, st := range e.stmts {
		qs := st.query.String()
		if _, err := Parse(qs); err != nil {
			return nil, fmt.Errorf("query: statement %d does not round-trip through the dialect (%q): %v", i, qs, err)
		}
		enc.Str(qs)
		enc.U8(uint8(st.query.Mode))

		if st.shared {
			owner := -1
			for j := 0; j < i; j++ {
				if !e.stmts[j].shared && e.stmts[j].est == st.est {
					owner = j
					break
				}
			}
			if owner < 0 {
				return nil, fmt.Errorf("query: statement %d shares an estimator no earlier statement owns", i)
			}
			enc.I64(int64(owner))
			continue
		}
		enc.I64(-1)

		if sliding, ok := st.est.(*window.Sliding); ok {
			enc.U8(estSliding)
			enc.I64(sliding.Tuples())
			slots := sliding.Slots()
			enc.U32(uint32(len(slots)))
			for _, sl := range slots {
				enc.I64(sl.Origin)
				blob, err := snapshot.Marshal(sl.Est)
				if err != nil {
					return nil, fmt.Errorf("query: statement %d (%s): %w", i, qs, err)
				}
				enc.Blob(blob)
			}
			continue
		}
		enc.U8(estLeaf)
		blob, err := snapshot.Marshal(st.est)
		if err != nil {
			return nil, fmt.Errorf("query: statement %d (%s): %w", i, qs, err)
		}
		enc.Blob(blob)
	}
	return enc.Bytes(), nil
}

// UnmarshalEngine rebuilds an engine from a snapshot against the schema it
// was captured under. resolve is consulted for windowed statements only and
// may be nil when the snapshot contains none.
//
// Every decoded estimator is cross-checked against the query it is wired
// to: its implication conditions must equal the query's, an AvgMultiplicity
// statement's leaf must be able to average, and a windowed statement's
// resolved backend must produce estimators configured like the checkpointed
// slots. A snapshot failing any check is rejected whole — a restored engine
// never answers from mismatched state.
//
// The sharing topology recorded in the snapshot is restored exactly, but
// the restored engine does not re-key it: queries registered after the
// restore get fresh estimators rather than aliasing restored ones.
func UnmarshalEngine(data []byte, schema *stream.Schema, resolve BackendResolver) (*Engine, error) {
	d := wire.NewDecoder(data)
	d.Magic(engineMagic)

	names := schema.Names()
	nattrs := d.Count(4)
	if d.Err() == nil && nattrs != len(names) {
		return nil, fmt.Errorf("%w: snapshot has %d schema attributes, stream has %d", wire.ErrCorrupt, nattrs, len(names))
	}
	for i := 0; i < nattrs; i++ {
		name := d.Str(1 << 16)
		if d.Err() == nil && name != names[i] {
			return nil, fmt.Errorf("%w: snapshot schema attribute %d is %q, stream has %q", wire.ErrCorrupt, i, name, names[i])
		}
	}
	tuples := d.I64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if tuples < 0 {
		return nil, fmt.Errorf("%w: negative tuple count", wire.ErrCorrupt)
	}

	e := NewEngine(schema)
	e.tuples.Store(tuples)
	nstmts := d.Count(14)
	for i := 0; i < nstmts; i++ {
		qs := d.Str(1 << 20)
		mode := Mode(d.U8())
		owner := d.I64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		q, err := Parse(qs)
		if err != nil {
			return nil, fmt.Errorf("%w: statement %d query %q: %v", wire.ErrCorrupt, i, qs, err)
		}
		if mode > AvgMultiplicity {
			return nil, fmt.Errorf("%w: statement %d has unknown mode %d", wire.ErrCorrupt, i, mode)
		}
		q.Mode = mode
		if err := q.Normalize(schema); err != nil {
			return nil, fmt.Errorf("%w: statement %d: %v", wire.ErrCorrupt, i, err)
		}
		st, err := newShell(*q, schema)
		if err != nil {
			return nil, fmt.Errorf("%w: statement %d: %v", wire.ErrCorrupt, i, err)
		}

		if owner >= 0 {
			if owner >= int64(i) {
				return nil, fmt.Errorf("%w: statement %d aliases statement %d, which does not precede it", wire.ErrCorrupt, i, owner)
			}
			own := e.stmts[owner]
			if own.shared {
				return nil, fmt.Errorf("%w: statement %d aliases statement %d, which owns no estimator", wire.ErrCorrupt, i, owner)
			}
			if err := validateMode(*q, leafEstimator(own.est)); err != nil {
				return nil, fmt.Errorf("%w: statement %d: %v", wire.ErrCorrupt, i, err)
			}
			st.bindEstimator(own.est)
			st.estMu = own.estMu
			st.shared = true
			e.stmts = append(e.stmts, st)
			continue
		}

		switch form := d.U8(); form {
		case estLeaf:
			if q.Window > 0 {
				return nil, fmt.Errorf("%w: statement %d is windowed but checkpointed as a leaf", wire.ErrCorrupt, i)
			}
			est, _, err := unmarshalStatementEstimator(d, *q, i)
			if err != nil {
				return nil, err
			}
			st.bindEstimator(est)
		case estSliding:
			if q.Window <= 0 {
				return nil, fmt.Errorf("%w: statement %d is unwindowed but checkpointed as sliding", wire.ErrCorrupt, i)
			}
			est, err := unmarshalSliding(d, *q, i, resolve)
			if err != nil {
				return nil, err
			}
			st.bindEstimator(est)
		default:
			if err := d.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("%w: statement %d has unknown estimator form %d", wire.ErrCorrupt, i, form)
		}
		e.stmts = append(e.stmts, st)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return e, nil
}

// unmarshalStatementEstimator decodes one framed leaf estimator and checks
// it against the statement's query.
func unmarshalStatementEstimator(d *wire.Decoder, q Query, i int) (imps.Estimator, string, error) {
	blob := d.Blob(snapshot.MaxEstimatorBlob)
	if err := d.Err(); err != nil {
		return nil, "", err
	}
	est, kind, err := snapshot.Unmarshal(blob)
	if err != nil {
		return nil, "", fmt.Errorf("statement %d: %w", i, err)
	}
	if cond, ok := snapshot.Conditions(est); ok && cond != q.Cond {
		return nil, "", fmt.Errorf("%w: statement %d estimator conditions (%s) do not match its query (%s)", wire.ErrCorrupt, i, cond, q.Cond)
	}
	if err := validateMode(q, est); err != nil {
		return nil, "", fmt.Errorf("%w: statement %d: %v", wire.ErrCorrupt, i, err)
	}
	return est, kind, nil
}

// unmarshalSliding decodes a sliding-window vector: the tuple position,
// then every live slot. The resolver supplies the factory for future slots;
// its estimators must fingerprint identically to the checkpointed ones.
func unmarshalSliding(d *wire.Decoder, q Query, i int, resolve BackendResolver) (imps.Estimator, error) {
	n := d.I64()
	nslots := d.Count(12)
	if err := d.Err(); err != nil {
		return nil, err
	}
	var (
		slots []window.SlotState
		kind  string
	)
	for s := 0; s < nslots; s++ {
		origin := d.I64()
		est, k, err := unmarshalStatementEstimator(d, q, i)
		if err != nil {
			return nil, err
		}
		if kind == "" {
			kind = k
		}
		slots = append(slots, window.SlotState{Origin: origin, Est: est})
	}
	if kind == "" {
		return nil, fmt.Errorf("%w: statement %d sliding window has no slots", wire.ErrCorrupt, i)
	}

	if resolve == nil {
		return nil, fmt.Errorf("query: statement %d is windowed; restoring it requires a backend resolver", i)
	}
	backend, err := resolve(q, kind)
	if err != nil {
		return nil, fmt.Errorf("query: statement %d: %w", i, err)
	}
	if backend == nil {
		return nil, fmt.Errorf("query: statement %d: resolver returned no backend for kind %q", i, kind)
	}
	probe, err := backend(q.Cond)
	if err != nil {
		return nil, fmt.Errorf("query: statement %d: resolved backend rejected the query conditions: %w", i, err)
	}
	for _, slot := range slots {
		if err := compareFingerprints(probe, slot.Est); err != nil {
			return nil, fmt.Errorf("query: statement %d: %w", i, err)
		}
	}

	sliding, err := window.NewSliding(q.Window, q.Every, func() imps.Estimator {
		e, err := backend(q.Cond)
		if err != nil {
			panic(fmt.Sprintf("query: estimator backend failed after validation: %v", err))
		}
		return e
	})
	if err != nil {
		return nil, fmt.Errorf("%w: statement %d: %v", wire.ErrCorrupt, i, err)
	}
	if err := sliding.Restore(n, slots); err != nil {
		return nil, fmt.Errorf("%w: statement %d: %v", wire.ErrCorrupt, i, err)
	}
	return sliding, nil
}

// compareFingerprints rejects a resolved backend whose estimators are not
// configured like a checkpointed one: mixing configurations across the
// slots of one window would corrupt its counts as the window slides. The
// fingerprint leaves out what does not change an answer, such as a
// sketch's lock stripe count, so one window may hold a restored slot of
// one stripe count beside fresh slots of another.
func compareFingerprints(fresh, restored imps.Estimator) error {
	ff, ok1 := fresh.(imps.ConfigFingerprinter)
	rf, ok2 := restored.(imps.ConfigFingerprinter)
	if !ok1 || !ok2 {
		return fmt.Errorf("estimator %T does not declare a configuration fingerprint", fresh)
	}
	if ff.ConfigFingerprint() != rf.ConfigFingerprint() {
		return fmt.Errorf("resolved backend configuration %s does not match checkpointed %s",
			ff.ConfigFingerprint(), rf.ConfigFingerprint())
	}
	return nil
}
