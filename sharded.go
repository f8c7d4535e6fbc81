package implicate

import (
	"sync/atomic"

	"implicate/internal/core"
	"implicate/internal/imps"
)

// ShardedSketch is the parallel-ingestion NIPS/CI sketch: one sketch whose
// m bitmaps are guarded by n lock stripes keyed by the tuple hash, so
// concurrent producers contend only when their tuples route to the same
// stripe, and AddHashedPairs takes each stripe lock once per batch. Its
// state and its MarshalBinary bytes are those of a single same-seed Sketch
// fed the same per-bitmap tuple order, the entry high-water mark excepted;
// see the "Concurrency and the ingest path" chapter of DESIGN.md for when
// to choose it over Synchronized.
type ShardedSketch = core.ShardedSketch

// HashedPair is one projected tuple of the batched ingest path: the encoded
// A- and B-itemsets plus the sketch's own hashes of them. Fill AH and BH
// with ShardedSketch.HashPairKeys — on the producer's goroutine, outside
// any lock — and hand batches to ShardedSketch.AddHashedPairs.
type HashedPair = imps.HashedPair

// NewShardedSketch returns a sharded NIPS/CI sketch for the given
// implication conditions. shards must be a power of two no larger than the
// bitmap count; 0 selects a shard count matched to GOMAXPROCS. All methods
// are safe for concurrent use.
func NewShardedSketch(cond Conditions, opts Options, shards int) (*ShardedSketch, error) {
	return core.NewShardedSketch(cond, opts, shards)
}

// ShardedSketchBackend returns a Backend producing sharded NIPS/CI sketches
// with the given options and shard count (0 matches GOMAXPROCS); seeds are
// derived per statement. Use it when the engine's statements are fed from
// concurrent producers.
func ShardedSketchBackend(opts Options, shards int) Backend {
	var n atomic.Uint64
	return func(cond Conditions) (Estimator, error) {
		o := opts
		o.Seed = opts.Seed + n.Add(1)*0x9e3779b97f4a7c15
		return core.NewShardedSketch(cond, o, shards)
	}
}
