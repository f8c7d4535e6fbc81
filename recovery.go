package implicate

import (
	"implicate/internal/checkpoint"
	"implicate/internal/core"
	"implicate/internal/query"
	"implicate/internal/stream"
)

// Durability & recovery (DESIGN.md §8): a running engine can be captured
// into a Checkpoint — a CRC-guarded, versioned snapshot of every
// statement's estimator state plus the stream offset — written atomically
// to disk, and restored after a crash. Recovery is replay-based: restore
// the engine, skip the source past Checkpoint.Offset tuples (Resumable),
// and keep consuming; against the same stream the recovered engine answers
// exactly what an uninterrupted run answers.

// Checkpoint is one durable recovery point: a serialized engine and the
// number of source tuples it had consumed when captured.
type Checkpoint = checkpoint.Snapshot

// BackendResolver supplies live backends while restoring a checkpoint:
// it is asked once per windowed statement (sliding windows open fresh
// estimators as the stream advances, so they need a factory, not just
// state) with the statement's query and the checkpointed estimator kind
// ("nips", "sharded", "exact", "ilc" or "ds"). The resolved backend's
// configuration must match the checkpoint or the restore fails.
type BackendResolver = query.BackendResolver

// Resumable is a Source that tracks its position in tuples and can skip
// forward without decoding, so a stream can be replayed from a checkpoint
// offset. MemSource and both file readers implement it.
type Resumable = stream.Resumable

// PeriodicCheckpoint writes a checkpoint of an engine every Every tuples
// of stream progress; see its Maybe method.
type PeriodicCheckpoint = checkpoint.Periodic

// CaptureCheckpoint snapshots a live engine at the given stream offset.
func CaptureCheckpoint(eng *Engine, offset int64) (Checkpoint, error) {
	return checkpoint.Capture(eng, offset)
}

// RestoreCheckpoint rebuilds an engine from a checkpoint. The schema must
// match the checkpointed one exactly; resolve may be nil when no statement
// uses a WINDOW clause.
func RestoreCheckpoint(c Checkpoint, schema *Schema, resolve BackendResolver) (*Engine, error) {
	return checkpoint.Restore(c, schema, resolve)
}

// WriteCheckpoint stores a checkpoint at path atomically (temp file +
// rename): a crash mid-write leaves the previous checkpoint intact, never
// a torn file.
func WriteCheckpoint(path string, c Checkpoint) error { return checkpoint.Write(path, c) }

// ReadCheckpoint loads and verifies a checkpoint file. A file that cannot
// be proven intact — truncated, bit-flipped, version-skewed — is rejected
// with an error, never restored into a wrong engine.
func ReadCheckpoint(path string) (Checkpoint, error) { return checkpoint.Read(path) }

// UnmarshalShardedSketch restores a sharded sketch serialized with
// ShardedSketch.MarshalBinary — the bytes of the equivalent single Sketch —
// or with an earlier build's sharded encoding. The shard count is not part
// of the state: the result has the default count (as NewShardedSketch with
// shards == 0), estimates identically and keeps streaming from where the
// original stopped.
func UnmarshalShardedSketch(data []byte) (*ShardedSketch, error) {
	return core.UnmarshalShardedSketch(data)
}
