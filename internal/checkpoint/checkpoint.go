// Package checkpoint is the durable layer of the crash-recovery subsystem:
// it frames an engine snapshot and its stream offset into a CRC-guarded
// file written atomically, and restores engines from such files.
//
// The recovery contract is replay-based. A checkpoint records the engine
// state after exactly Offset tuples; to recover, restore the engine, skip
// the source past the first Offset tuples (stream.Resumable) and keep
// consuming. Against the same stream the recovered engine is
// indistinguishable from one that never stopped — bit-identical for the
// deterministic estimators, within estimator error for none (every
// estimator's full state rides in the checkpoint, so there is no
// re-approximation on restore).
//
// A checkpoint that cannot be proven intact — truncated, bit-flipped,
// version-skewed, or inconsistent with the stream schema — is rejected
// with an error. The failure mode is always "no answer", never "a wrong
// answer".
package checkpoint

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"implicate/internal/query"
	"implicate/internal/stream"
	"implicate/internal/wire"
)

const fileMagic = "IMPK\x01"

// Version is the current checkpoint file version. Decode rejects any other:
// guessing at a future layout risks a silently wrong restore.
const Version = 1

// maxPayload bounds the framed payload (engine snapshot plus offset).
const maxPayload = 1 << 31

// castagnoli is the CRC-32C table; the checksum guards the whole payload.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is one recovery point: an engine's serialized state and the
// number of source tuples it had consumed when captured.
type Snapshot struct {
	// Offset is the number of tuples consumed from the source.
	Offset int64
	// Engine is the query engine's snapshot (query.Engine MarshalBinary).
	Engine []byte
}

// Capture snapshots a live engine at the given stream offset.
func Capture(eng *query.Engine, offset int64) (Snapshot, error) {
	if offset < 0 {
		return Snapshot{}, fmt.Errorf("checkpoint: negative stream offset %d", offset)
	}
	blob, err := eng.MarshalBinary()
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{Offset: offset, Engine: blob}, nil
}

// Restore rebuilds the engine from a snapshot; see query.UnmarshalEngine
// for the validation it performs. resolve is asked for backends by name,
// so a window of several-stripe sketches resolves as "nips", the one
// backend that builds a sketch at every stripe count. The caller then
// skips the source to snap.Offset and resumes consuming.
func Restore(snap Snapshot, schema *stream.Schema, resolve query.BackendResolver) (*query.Engine, error) {
	byName := resolve
	if resolve != nil {
		byName = func(q query.Query, kind string) (query.Backend, error) {
			if kind == "sharded" {
				kind = "nips"
			}
			return resolve(q, kind)
		}
	}
	return query.UnmarshalEngine(snap.Engine, schema, byName)
}

// Encode frames a snapshot into the checkpoint file format.
func Encode(snap Snapshot) []byte {
	payload := wire.NewEncoder(len(snap.Engine) + 16)
	payload.I64(snap.Offset)
	payload.Blob(snap.Engine)

	e := wire.NewEncoder(len(payload.Bytes()) + 16)
	e.Raw([]byte(fileMagic))
	e.U32(Version)
	e.U32(crc32.Checksum(payload.Bytes(), castagnoli))
	e.Blob(payload.Bytes())
	return e.Bytes()
}

// Decode unframes a checkpoint file, verifying magic, version and checksum.
func Decode(data []byte) (Snapshot, error) {
	d := wire.NewDecoder(data)
	d.Magic(fileMagic)
	version := d.U32()
	sum := d.U32()
	payload := d.Blob(maxPayload)
	if err := d.Done(); err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: %w", err)
	}
	if version != Version {
		return Snapshot{}, fmt.Errorf("checkpoint: unsupported version %d (want %d)", version, Version)
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return Snapshot{}, fmt.Errorf("checkpoint: checksum mismatch (stored %08x, computed %08x): file is corrupt", sum, got)
	}

	p := wire.NewDecoder(payload)
	var snap Snapshot
	snap.Offset = p.I64()
	snap.Engine = p.Blob(maxPayload)
	if err := p.Done(); err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: %w", err)
	}
	if snap.Offset < 0 {
		return Snapshot{}, fmt.Errorf("checkpoint: negative stream offset %d", snap.Offset)
	}
	return snap, nil
}

// Write stores a snapshot at path atomically: the bytes are written to a
// temporary file in the same directory, synced, and renamed over the
// destination, so a crash mid-write leaves either the old checkpoint or
// the new one — never a torn file.
func Write(path string, snap Snapshot) error {
	data := Encode(snap)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Sync the directory so the rename itself survives a crash.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Read loads and verifies a checkpoint file.
func Read(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: %w", err)
	}
	snap, err := Decode(data)
	if err != nil {
		return Snapshot{}, fmt.Errorf("%w (%s)", err, path)
	}
	return snap, nil
}

// Periodic writes a checkpoint every Every tuples of stream progress.
type Periodic struct {
	// Path is the checkpoint file location.
	Path string
	// Every is the tuple interval between checkpoints; zero disables.
	Every int64

	last int64
}

// SkipTo marks offset as already durable, so the next write happens Every
// tuples after it. Call it after resuming from a checkpoint taken at
// offset — re-writing the state just restored would be wasted IO.
func (p *Periodic) SkipTo(offset int64) { p.last = offset }

// Maybe checkpoints the engine when at least Every tuples have been
// consumed since the last write (or since construction). It reports
// whether a checkpoint was written.
func (p *Periodic) Maybe(eng *query.Engine, offset int64) (bool, error) {
	if p.Every <= 0 || offset-p.last < p.Every {
		return false, nil
	}
	snap, err := Capture(eng, offset)
	if err != nil {
		return false, err
	}
	if err := Write(p.Path, snap); err != nil {
		return false, err
	}
	p.last = offset
	return true, nil
}
