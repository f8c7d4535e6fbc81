// Package implicate maintains implicated statistics over data streams in
// constrained environments, implementing Sismanis & Roussopoulos,
// "Maintaining Implicated Statistics in Constrained Environments" (ICDE
// 2005).
//
// The central statistic is the implication count: given a stream of tuples
// and two attribute sets A and B, how many distinct A-itemsets imply B —
// appear with at most K distinct B-itemsets, with support at least τ, and
// with their top-c partners covering at least a ψ fraction of their
// occurrences? Such counts summarize one-to-one and one-to-many
// relationships in real time: destinations contacted by a single source
// (intrusion detection), services requested by one client, approximate
// functional dependencies, correlation pre-passes for multi-dimensional
// synopses.
//
// The primary estimator is the paper's NIPS/CI sketch (NewSketch): a
// Flajolet–Martin style bitmap whose floating fringe zone tracks the few
// still-undecided itemsets, recording confirmed non-implications as
// monotone bits. It answers implication-count queries within ~10% using
// O(K·2^F) counters per bitmap — thousands of entries for streams of any
// length and any attribute cardinality. Baselines from the paper's
// evaluation are included: an exact hash-table counter (NewExact),
// Implication Lossy Counting (NewILC), and Distinct Sampling
// (NewDistinctSampling).
//
// Queries can be written in the paper's SQL-like dialect and run over tuple
// streams:
//
//	eng := implicate.NewEngine(schema)
//	st, err := eng.RegisterSQL(`
//	    SELECT COUNT(DISTINCT Destination) FROM traffic
//	    WHERE Destination IMPLIES Source
//	    WITH SUPPORT >= 10, CONFIDENCE >= 0.9 TOP 1`, implicate.SketchBackend(implicate.Options{}))
//	... feed tuples with eng.Process ...
//	fmt.Println(st.Count())
//
// Incremental counts and sliding windows (§3.2) are provided by
// NewIncremental and NewSliding, or the WINDOW clause of the dialect.
package implicate

import (
	"sync/atomic"

	"implicate/internal/core"
	"implicate/internal/dsample"
	"implicate/internal/exact"
	"implicate/internal/imps"
	"implicate/internal/lossy"
	"implicate/internal/query"
	"implicate/internal/stream"
	"implicate/internal/window"
)

// Conditions are the implication conditions (K, τ, c, ψ) of §3.1.1.
type Conditions = imps.Conditions

// Estimator is the contract shared by every implication-count algorithm.
type Estimator = imps.Estimator

// Options configure the NIPS/CI sketch (bitmap count, fringe size, slack,
// seed).
type Options = core.Options

// Sketch is the NIPS/CI estimator, the paper's primary contribution. Its
// bitmaps sit behind lock stripes keyed by the tuple hash, so all its
// methods are safe for concurrent use and producers ingest in parallel.
type Sketch = core.Sketch

// NewSketch returns a NIPS/CI sketch with one lock stripe for the given
// implication conditions.
func NewSketch(cond Conditions, opts Options) (*Sketch, error) {
	return core.NewSketch(cond, opts)
}

// NewShardedSketch returns a NIPS/CI sketch with the given number of lock
// stripes for parallel ingestion. shards must be a power of two no larger
// than the bitmap count; 0 selects a count matched to GOMAXPROCS.
func NewShardedSketch(cond Conditions, opts Options, shards int) (*Sketch, error) {
	return core.NewShardedSketch(cond, opts, shards)
}

// HashedPair is one projected tuple of the batched ingest path: the encoded
// A- and B-itemsets plus the sketch's own hashes of them. Fill AH and BH
// with Sketch.HashPairKeys — on the producer's goroutine, outside any lock
// — and hand batches to Sketch.AddHashedPairs.
type HashedPair = imps.HashedPair

// Exact is the exact hash-table implication counter (ground truth; memory
// proportional to the number of distinct itemsets). It is safe for
// concurrent use.
type Exact = exact.Counter

// NewExact returns an exact counter with one lock stripe.
func NewExact(cond Conditions) (*Exact, error) { return exact.NewCounter(cond) }

// ILC is Implication Lossy Counting (§5.1), the frequent-itemset baseline.
type ILC = lossy.ILC

// NewILC returns an ILC instance with relative support relSupport and
// approximation parameter eps (eps ≤ relSupport).
func NewILC(cond Conditions, relSupport, eps float64) (*ILC, error) {
	return lossy.NewILC(cond, relSupport, eps)
}

// DistinctSampling is the Gibbons distinct-sampling baseline adapted to
// implication counting (§6.2).
type DistinctSampling = dsample.Sketch

// NewDistinctSampling returns a Distinct Sampling estimator with the given
// entry budget and per-value bound.
func NewDistinctSampling(cond Conditions, size, bound int, seed uint64) (*DistinctSampling, error) {
	return dsample.New(cond, size, bound, seed)
}

// Schema, Tuple and Proj model the stream relation of §3.
type (
	Schema = stream.Schema
	Tuple  = stream.Tuple
	Proj   = stream.Proj
)

// NewSchema builds a schema from attribute names.
func NewSchema(names ...string) (*Schema, error) { return stream.NewSchema(names...) }

// Query types: the implication-query model and engine of Table 2.
type (
	Query     = query.Query
	Filter    = query.Filter
	Mode      = query.Mode
	Statement = query.Statement
	Engine    = query.Engine
	Backend   = query.Backend
)

// Query modes.
const (
	CountImplications    = query.CountImplications
	CountNonImplications = query.CountNonImplications
	CountSupported       = query.CountSupported
	CountDistinct        = query.CountDistinct
	AvgMultiplicity      = query.AvgMultiplicity
)

// MultiplicityAverager is implemented by estimators that can answer
// AVG(MULTIPLICITY(...)) queries (Table 2's complex-aggregate row). The
// sketch, the exact counter, ILC, Distinct Sampling and sliding windows all
// implement it.
type MultiplicityAverager = imps.MultiplicityAverager

// UnmarshalSketch restores a sketch serialized with Sketch.MarshalBinary —
// the checkpoint/ship-upstream path of distributed aggregation; restored
// sketches continue streaming and can be merged with Sketch.Merge.
func UnmarshalSketch(data []byte) (*Sketch, error) { return core.UnmarshalSketch(data) }

// EpsDelta is the §4.7.1 confidence amplifier: the median over an odd
// number of independently seeded sketches. Choose Options.Bitmaps for the
// target relative error ε (≈0.78/√m) and the group count for the target
// failure probability δ (GroupsFor).
type EpsDelta = core.EpsDelta

// NewEpsDelta returns a median-of-groups estimator over g independently
// seeded sketches.
func NewEpsDelta(cond Conditions, opts Options, g int) (*EpsDelta, error) {
	return core.NewEpsDelta(cond, opts, g)
}

// GroupsFor returns the group count needed for failure probability delta.
func GroupsFor(delta float64) int { return core.GroupsFor(delta) }

// NewEngine returns a query engine bound to the schema.
func NewEngine(schema *Schema) *Engine { return query.NewEngine(schema) }

// ParseQuery parses the SQL-like implication-query dialect of §3.
func ParseQuery(sql string) (*Query, error) { return query.Parse(sql) }

// SketchBackend returns a Backend producing NIPS/CI sketches with the given
// options, striped for GOMAXPROCS (seeds are derived per statement,
// atomically, so one backend can serve statement registration from
// concurrent goroutines).
func SketchBackend(opts Options) Backend {
	var n atomic.Uint64
	return func(cond Conditions) (Estimator, error) {
		o := opts
		o.Seed = opts.Seed + n.Add(1)*0x9e3779b97f4a7c15
		return core.NewShardedSketch(cond, o, 0)
	}
}

// ExactBackend returns a Backend producing exact counters striped for
// GOMAXPROCS, so statements fed from concurrent producers or a multi-worker
// server pipeline ingest in parallel; every stripe count answers exactly
// what a one-stripe counter (NewExact) answers.
func ExactBackend() Backend {
	return func(cond Conditions) (Estimator, error) { return exact.NewStriped(cond, 0) }
}

// Incremental answers "how many new implicating itemsets since t" queries
// by snapshot differencing (§3.2).
type Incremental = window.Incremental

// Mark is a snapshot of counts at a reference point.
type Mark = window.Mark

// NewIncremental wraps a fresh estimator for incremental queries.
func NewIncremental(est Estimator) *Incremental { return window.NewIncremental(est) }

// Sliding maintains a vector of estimators with staggered origins for
// moving-window implication counts (§3.2).
type Sliding = window.Sliding

// NewSliding returns a sliding-window counter over windows of width tuples
// with origins every gran tuples.
func NewSliding(width, gran int64, newEstimator func() Estimator) (*Sliding, error) {
	return window.NewSliding(width, gran, newEstimator)
}
