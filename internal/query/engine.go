package query

import (
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"

	"implicate/internal/imps"
	"implicate/internal/stream"
	"implicate/internal/window"
)

// Backend constructs a fresh estimator for the given implication
// conditions — the pluggable choice between the NIPS/CI sketch, the exact
// counter, and the baselines.
type Backend func(cond imps.Conditions) (imps.Estimator, error)

// Statement is a query compiled against a schema and bound to an
// estimator; feed it tuples and read counts at any time.
//
// Ingest is two steps (the contract of package imps, DESIGN.md §7): Plan
// turns tuples into buckets of imps.HashedPair, Apply hands a bucket to the
// estimator. Process and ProcessBatch are the two composed on the caller's
// goroutine over one partition; pipeline.Pool runs the same two calls with
// planning on its producers and one Apply per bucket on its workers.
type Statement struct {
	query   Query
	projA   stream.Proj
	projB   stream.Proj
	hasB    bool
	filters []compiledFilter
	est     imps.Estimator
	// hashed is est's partition-safe ingest contract, nil for the
	// serialized class; cached here so the per-pair path pays no interface
	// assertion.
	hashed imps.HashedPartitionedAdder
	// estMu guards the estimator: Apply takes it exclusively for the
	// serialized class, as does Exclusive; readers (Count, Health) take it
	// shared. Statements aliasing one estimator alias its lock too.
	// Partition-safe estimators synchronize internally, so their Apply
	// never takes it; their readers still acquire it shared, which is then
	// uncontended.
	estMu *sync.RWMutex
	// shared marks a statement aliasing another statement's estimator; the
	// engine feeds each estimator exactly once per tuple.
	shared bool

	// serial is the plan memory of the single-goroutine Process and
	// ProcessBatch paths; concurrent planners bring their own.
	serial struct {
		buckets [][]imps.HashedPair
		buf     PlanBuf
	}
}

type compiledFilter struct {
	idx    int
	value  string
	negate bool
}

// Compile validates and normalizes q against the schema and binds it to an
// estimator from the backend. Compound queries (GROUP BY) extend the
// counted itemset with the grouping attributes; windowed queries wrap the
// backend in a sliding-origin vector (§3.2).
func Compile(q Query, schema *stream.Schema, backend Backend) (*Statement, error) {
	if backend == nil {
		return nil, fmt.Errorf("query: nil backend")
	}
	if err := q.Normalize(schema); err != nil {
		return nil, err
	}
	probe, err := backend(q.Cond)
	if err != nil {
		return nil, err
	}
	if err := validateMode(q, probe); err != nil {
		return nil, err
	}
	return compileWith(q, schema, backend, probe)
}

// validateMode checks the query's read mode against a leaf estimator the
// backend produced. The check runs against the innermost estimator — never
// against a wrapper whose own AvgMultiplicity method would satisfy the
// interface regardless of what it wraps: the sliding-window vector (checked
// before it is built) or a forwarding wrapper such as implicate.Synchronized,
// which answers 0 for an estimator that has no such aggregate. Wrappers
// expose what they wrap through Unwrap.
func validateMode(q Query, leaf imps.Estimator) error {
	if q.Mode != AvgMultiplicity {
		return nil
	}
	for {
		w, ok := leaf.(interface{ Unwrap() imps.Estimator })
		if !ok {
			break
		}
		leaf = w.Unwrap()
	}
	if _, ok := leaf.(imps.MultiplicityAverager); !ok {
		return fmt.Errorf("query: the chosen backend cannot answer AVG(MULTIPLICITY(...))")
	}
	return nil
}

// newShell builds the estimator-independent part of a statement: the
// projections and compiled filters for an already normalized query.
func newShell(q Query, schema *stream.Schema) (*Statement, error) {
	st := &Statement{query: q, estMu: &sync.RWMutex{}}
	aAttrs := append(append([]string(nil), q.A...), q.GroupBy...)
	var err error
	if st.projA, err = schema.Proj(aAttrs...); err != nil {
		return nil, err
	}
	if len(q.B) > 0 {
		if st.projB, err = schema.Proj(q.B...); err != nil {
			return nil, err
		}
		st.hasB = true
	}
	for _, f := range q.Filters {
		idx, _ := schema.Index(f.Attr)
		st.filters = append(st.filters, compiledFilter{idx: idx, value: f.Value, negate: f.Negate})
	}
	return st, nil
}

// compileWith finishes compiling an already normalized and mode-validated
// query. probe is a fresh estimator from backend: unwindowed statements
// bind it directly; windowed statements discard it and let the sliding
// vector construct its slot estimators from the factory.
func compileWith(q Query, schema *stream.Schema, backend Backend, probe imps.Estimator) (*Statement, error) {
	st, err := newShell(q, schema)
	if err != nil {
		return nil, err
	}
	if q.Window > 0 {
		sliding, err := window.NewSliding(q.Window, q.Every, func() imps.Estimator {
			e, err := backend(q.Cond)
			if err != nil {
				panic(fmt.Sprintf("query: estimator backend failed after validation: %v", err))
			}
			return e
		})
		if err != nil {
			return nil, err
		}
		st.bindEstimator(sliding)
	} else {
		st.bindEstimator(probe)
	}
	return st, nil
}

// bindEstimator wires est into the statement, caching its concurrency
// class. Every place a statement receives an estimator — compilation,
// alias registration, checkpoint restore — goes through here.
func (st *Statement) bindEstimator(est imps.Estimator) {
	st.est = est
	st.hashed, _ = est.(imps.HashedPartitionedAdder)
}

// Query returns the normalized query.
func (st *Statement) Query() Query { return st.query }

// Estimator exposes the bound estimator.
func (st *Statement) Estimator() imps.Estimator { return st.est }

// Process feeds one tuple through the statement: ProcessBatch of one.
func (st *Statement) Process(t stream.Tuple) {
	one := [1]stream.Tuple{t}
	st.ProcessBatch(one[:])
}

// ProcessBatch plans a batch of tuples into one partition and applies it on
// the caller's goroutine. Like Process it owns the statement's plan memory,
// so only one goroutine may feed a statement this way at a time.
func (st *Statement) ProcessBatch(ts []stream.Tuple) {
	st.serial.buckets = st.Plan(ts, 1, st.serial.buckets, &st.serial.buf)
	st.Apply(st.serial.buckets[0])
}

// PartitionSafe reports the statement's concurrency class: true when its
// estimator implements imps.HashedPartitionedAdder, so Plan spreads pairs
// over the estimator's partitions and Apply may run concurrently on
// distinct ones; false when Plan fills bucket 0 only and Apply serializes
// on the statement's lock.
func (st *Statement) PartitionSafe() bool { return st.hashed != nil }

// PlanBuf is the recycled key memory behind Plan for multi-attribute
// projections; the zero value is ready to use. A PlanBuf serves one Plan
// call at a time.
type PlanBuf struct {
	keys []byte
	ends []int
}

// Plan runs the statement's filters and projections over a batch and
// buckets the surviving pairs (parts must be a power of two >= 1). A
// partition-safe statement's pairs carry the estimator's own key hashes,
// computed here exactly once, and land in the estimator's own ingest
// partitions; a serialized statement's pairs all land in bucket 0 with
// their hashes zero. buckets is recycled when it has the capacity; the
// returned slice has length parts.
//
// One-attribute projections need no key assembly — the key IS the tuple's
// value — so their pairs reference the batch's own strings. Multi-attribute
// keys are assembled into buf and sliced out of one string conversion per
// batch. Either way Plan allocates nothing per tuple, and estimators clone
// any key they retain, so a stored key never pins its batch.
//
// Planning touches no statement or estimator state — it is safe to call
// concurrently from any number of goroutines, each with its own buckets and
// buf — so batch planning can run on connection readers while workers apply
// earlier batches. Applying every bucket such that each partition's pair
// order is preserved reproduces the serial ProcessBatch state bit for bit;
// buckets of different batches may be applied concurrently as long as
// same-partition buckets stay ordered.
func (st *Statement) Plan(ts []stream.Tuple, parts int, buckets [][]imps.HashedPair, buf *PlanBuf) [][]imps.HashedPair {
	if cap(buckets) >= parts {
		buckets = buckets[:parts]
		for i := range buckets {
			buckets[i] = buckets[i][:0]
		}
	} else {
		buckets = make([][]imps.HashedPair, parts)
	}
	aIdx, aOne := st.projA.Single()
	bIdx, bOne := -1, true
	if st.hasB {
		bIdx, bOne = st.projB.Single()
	}
	// Pass 1, multi-attribute projections only: assemble every surviving
	// tuple's keys back to back, then convert once. ends[i] closes key i.
	var keys string
	if !aOne || !bOne {
		buf.keys, buf.ends = buf.keys[:0], buf.ends[:0]
		for _, t := range ts {
			if !st.passes(t) {
				continue
			}
			if !aOne {
				buf.keys = st.projA.AppendKey(buf.keys, t)
				buf.ends = append(buf.ends, len(buf.keys))
			}
			if !bOne {
				buf.keys = st.projB.AppendKey(buf.keys, t)
				buf.ends = append(buf.ends, len(buf.keys))
			}
		}
		keys = string(buf.keys)
	}
	off, next := 0, 0
	for _, t := range ts {
		if !st.passes(t) {
			continue
		}
		var p imps.HashedPair
		if aOne {
			p.A = t[aIdx]
		} else {
			p.A = keys[off:buf.ends[next]]
			off, next = buf.ends[next], next+1
		}
		if !bOne {
			p.B = keys[off:buf.ends[next]]
			off, next = buf.ends[next], next+1
		} else if st.hasB {
			p.B = t[bIdx]
		}
		part := 0
		if st.hashed != nil {
			p.AH, p.BH = st.hashed.HashPairKeys(p.A, p.B)
			part = st.hashed.IngestPartitionHashed(p.AH, parts)
		}
		buckets[part] = append(buckets[part], p)
	}
	return buckets
}

// passes reports whether t survives the statement's filters.
func (st *Statement) passes(t stream.Tuple) bool {
	for _, f := range st.filters {
		if (t[f.idx] == f.value) == f.negate {
			return false
		}
	}
	return true
}

// Apply feeds one planned bucket to the estimator. For a partition-safe
// statement it is safe for concurrent use across distinct partitions (the
// partition contract) and takes no statement lock. For a serialized
// statement it holds the statement's exclusive lock for the whole bucket,
// excluding concurrent Count readers and Exclusive sections.
func (st *Statement) Apply(pairs []imps.HashedPair) {
	if st.hashed != nil {
		st.hashed.AddHashedPairs(pairs)
		return
	}
	st.estMu.Lock()
	for i := range pairs {
		st.est.Add(pairs[i].A, pairs[i].B)
	}
	st.estMu.Unlock()
}

// Exclusive runs f while holding the statement's exclusive lock, blocking
// serialized-class Apply and Count readers. Callers mutating the bound
// estimator from outside the ingest path (snapshot merges) use this to
// coordinate with a concurrent pipeline.
func (st *Statement) Exclusive(f func()) {
	st.estMu.Lock()
	defer st.estMu.Unlock()
	f()
}

// Count returns the query's answer under its mode. It acquires the
// statement's lock shared, so it may run at any time against a live
// pipeline: serialized-class writers hold the lock exclusively, and
// partition-safe estimators synchronize reads internally.
func (st *Statement) Count() float64 {
	st.estMu.RLock()
	defer st.estMu.RUnlock()
	return st.count()
}

func (st *Statement) count() float64 {
	switch st.query.Mode {
	case CountNonImplications:
		return st.est.NonImplicationCount()
	case CountSupported:
		return st.est.SupportedDistinct()
	case CountDistinct:
		// With the defaulted exact one-to-one conditions and a constant B
		// key, every itemset trivially implies; the supported count at
		// τ=1 is the distinct count.
		return st.est.SupportedDistinct()
	case AvgMultiplicity:
		// Compile guarantees the estimator supports the aggregate.
		return st.est.(imps.MultiplicityAverager).AvgMultiplicity()
	default:
		return st.est.ImplicationCount()
	}
}

// Engine runs any number of compiled statements over one tuple stream.
// Statements registered through the same engine share estimators when they
// differ only in what they read off it: the implication count, the
// complement, the supported count and the average multiplicity of one
// (A, B, conditions, filters, window) combination all come from a single
// sketch, so asking all four costs one.
type Engine struct {
	schema *stream.Schema
	stmts  []*Statement
	shared map[string]*Statement
	// tuples is atomic so a concurrent pipeline's workers can publish
	// applied-batch totals while readers poll Tuples.
	tuples atomic.Int64
}

// NewEngine returns an engine bound to the schema.
func NewEngine(schema *stream.Schema) *Engine {
	return &Engine{schema: schema, shared: make(map[string]*Statement)}
}

// shareKey canonicalizes everything about a query except its mode, tied to
// the backend's identity. The identity has two parts: the backend function's
// code pointer AND the configuration fingerprint of an estimator it built
// for these conditions. The code pointer alone is NOT an identity — every
// closure returned by one factory function shares it, so two backends built
// from the same factory with different options would collide and silently
// alias one estimator. The fingerprint is what tells them apart; the code
// pointer is kept so distinct backend functions never share even when their
// configurations coincide.
//
// Statements share only when the probe estimator declares a fingerprint at
// all; an estimator the engine cannot identify is never aliased. The second
// return reports whether the statement may share.
func shareKey(q Query, backend Backend, probe imps.Estimator) (string, bool) {
	if q.Mode == CountDistinct {
		// Distinct counts rewrite the predicate; they never alias an
		// implication estimator.
		return "", false
	}
	fp, ok := probe.(imps.ConfigFingerprinter)
	if !ok {
		return "", false
	}
	mode := q.Mode
	if mode == AvgMultiplicity || mode == CountNonImplications || mode == CountSupported {
		mode = CountImplications
	}
	k := q
	k.Mode = mode
	return fmt.Sprintf("%d|%s|%s", reflect.ValueOf(backend).Pointer(), fp.ConfigFingerprint(), k.String()), true
}

// Register compiles and adds a query; the returned statement can be read at
// any time. Queries over the same predicate registered with the same
// backend share one estimator.
//
// Every registration runs the full validation pipeline — normalization, a
// probe construction from the backend, and the mode check against that
// probe — whether or not it ends up sharing. A registration that would be
// rejected fresh is also rejected when an estimator it could alias happens
// to exist.
func (e *Engine) Register(q Query, backend Backend) (*Statement, error) {
	if backend == nil {
		return nil, fmt.Errorf("query: nil backend")
	}
	if err := q.Normalize(e.schema); err != nil {
		return nil, err
	}
	probe, err := backend(q.Cond)
	if err != nil {
		return nil, err
	}
	if err := validateMode(q, probe); err != nil {
		return nil, err
	}
	key, shareable := shareKey(q, backend, probe)
	if shareable {
		if prev, ok := e.shared[key]; ok {
			st, err := newShell(q, e.schema)
			if err != nil {
				return nil, err
			}
			st.bindEstimator(prev.est)
			// Aliasing statements share the owner's lock: an exclusive
			// writer on the owner excludes readers of every alias.
			st.estMu = prev.estMu
			st.shared = true
			e.stmts = append(e.stmts, st)
			return st, nil
		}
	}
	st, err := compileWith(q, e.schema, backend, probe)
	if err != nil {
		return nil, err
	}
	e.stmts = append(e.stmts, st)
	if shareable {
		e.shared[key] = st
	}
	return st, nil
}

// RegisterSQL parses, compiles and adds a query in the SQL-like dialect.
func (e *Engine) RegisterSQL(sql string, backend Backend) (*Statement, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.Register(*q, backend)
}

// Process feeds one tuple to every registered statement, feeding each
// shared estimator exactly once.
func (e *Engine) Process(t stream.Tuple) {
	e.tuples.Add(1)
	for _, st := range e.stmts {
		if st.shared {
			continue
		}
		st.Process(t)
	}
}

// ProcessBatch feeds a batch of tuples to every registered statement,
// feeding each shared estimator exactly once per tuple. Equivalent to
// calling Process per tuple; each statement runs the whole batch before the
// next one starts, so its projections and estimator stay cache-hot.
func (e *Engine) ProcessBatch(ts []stream.Tuple) {
	e.tuples.Add(int64(len(ts)))
	for _, st := range e.stmts {
		if st.shared {
			continue
		}
		st.ProcessBatch(ts)
	}
}

// Consume drains a source through the engine and returns the tuple count.
// Sources that support batched decoding (stream.BatchSource) are drained in
// batches of 256 tuples, amortizing decode and dispatch overhead.
func (e *Engine) Consume(src stream.Source) (int64, error) {
	bs, ok := src.(stream.BatchSource)
	if !ok {
		return stream.Each(src, func(t stream.Tuple) error {
			e.Process(t)
			return nil
		})
	}
	var total int64
	batch := make([]stream.Tuple, 256)
	for {
		n, err := bs.NextBatch(batch)
		if n > 0 {
			e.ProcessBatch(batch[:n])
			total += int64(n)
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// Tuples returns the number of tuples processed.
func (e *Engine) Tuples() int64 { return e.tuples.Load() }

// AddTuples publishes n applied tuples to the engine's total. The pipeline
// layer feeds statements directly (Plan on its producers, Apply on its
// workers) and accounts for each batch here once it is fully applied, so
// Tuples never runs ahead of estimator state.
func (e *Engine) AddTuples(n int64) { e.tuples.Add(n) }

// Statements returns the registered statements in registration order.
func (e *Engine) Statements() []*Statement { return append([]*Statement(nil), e.stmts...) }
