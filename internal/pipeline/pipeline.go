// Package pipeline is the concurrency layer of the ingest path: it takes
// the batches a producer (the server's connection readers, a bench driver)
// hands it, plans each into per-statement partition buckets, and fans the
// buckets out to a fixed pool of workers — while preserving, by
// construction, the exact state a serial run would build.
//
// The ordering argument (DESIGN.md §7): every statement routes each
// A-itemset to one partition (imps.HashedPartitionedAdder's own partitions
// for the partition-safe class, the single partition 0 for every other
// estimator), each partition is pinned to one worker, and worker queues are
// FIFO — so the per-partition pair order equals the batch arrival order,
// which the ingest contract says is the only order that matters.
// Reordering only ever happens across partitions or across statements,
// where no shared state exists.
//
// The split between Plan and Dispatch is the pipeline's second axis of
// parallelism: Plan touches no estimator or pool state and may run
// concurrently on any number of producer goroutines (filters, projections
// and key hashing happen there), while Dispatch — the only ordered step —
// must be called from a single goroutine, which defines the batch arrival
// order.
package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"implicate/internal/imps"
	"implicate/internal/obs"
	"implicate/internal/query"
	"implicate/internal/stream"
)

// Config tunes a Pool.
type Config struct {
	// Workers is the worker-goroutine count; 0 selects 1.
	Workers int
	// QueueLen is the per-worker task queue capacity in tasks; 0 selects 128.
	// A full queue never drops work — Dispatch blocks (and reports
	// saturation) until the worker drains.
	QueueLen int

	// OnApplied, when set, is called once per dispatched batch after every
	// statement has fully applied it, with the batch's tuple count. The
	// engine's Tuples total is advanced before the call.
	OnApplied func(tuples int)
	// OnTask, when set, is called after each task a worker applies, with the
	// worker index and the number of planned pairs the task carried.
	OnTask func(worker, units int)
	// OnSaturated, when set, is called each time Dispatch finds a worker
	// queue full and has to block — the pool-saturation signal.
	OnSaturated func()

	// Tracer, when non-nil, records one apply span per worker task with the
	// worker's index and the task's unit count. Nil disables tracing and
	// its per-task clock reads entirely.
	Tracer *obs.Tracer
}

// Pool fans planned batches out to its workers. Plan is safe for
// concurrent use; Dispatch and Fence must be called from one goroutine
// (the dispatcher), which defines the global batch order; Close must not
// race either. The engine's statement set must not change while the pool
// is live.
type Pool struct {
	cfg     Config
	eng     *query.Engine
	workers int
	// parts is the partition count statements plan against: the smallest
	// power of two >= workers, so every worker owns at least one partition
	// and the partition of a key never depends on the worker count (see
	// imps.HashedPartitionedAdder).
	parts  int
	owners []*query.Statement
	// first is the worker that applies each owner's partition 0; partition
	// p goes to worker (first+p) % workers. Owners are dealt round-robin,
	// so owners with one partition — every serialized one, and a
	// one-stripe sketch — do not all land on worker 0.
	first  []int
	queues []chan *task
	wg     sync.WaitGroup
	// free recycles Batches — and through them every plan-side buffer: the
	// decode arena, the partition buckets, the task slice. A batch returns
	// to the list when its last task applies (see applied), so steady-state
	// ingest re-plans into warm memory instead of allocating per batch.
	free sync.Pool
}

// Batch is one planned ingest batch: the per-statement work items Plan
// derived from the tuples, ready for Dispatch. A Batch is single-use
// between acquisition (NewBatch/Plan) and release: dispatching hands
// ownership to the pool, which recycles the batch after the last statement
// applies — the caller must not touch it after Dispatch admits it.
type Batch struct {
	n         int
	tasks     []task
	remaining atomic.Int32
	pool      *Pool
	// arena backs the batch's decoded tuples (see Arena); recycled with the
	// batch, so its lifetime is exactly the batch's plan-to-apply window.
	arena stream.RecordArena
	// buckets is the per-owner partition-bucket backing store: owner i
	// plans into window [i*parts, (i+1)*parts). Bucket capacity persists
	// across reuse, which is what makes steady-state planning allocation-
	// free. keys is the multi-attribute key assembly memory the owners'
	// plans share in turn.
	buckets [][]imps.HashedPair
	keys    query.PlanBuf
	// link is the causal identity the batch's apply spans record under —
	// the inbound frame's trace context, threaded from the connection
	// reader through dispatch to the workers. Zero for untraced batches.
	link obs.Link
}

// SetLink attaches the inbound trace context the batch's apply spans will
// be recorded under. Call it between acquisition and Dispatch; the pool
// clears it when the batch is recycled.
func (b *Batch) SetLink(l obs.Link) { b.link = l }

// Tuples returns the batch's tuple count.
func (b *Batch) Tuples() int { return b.n }

// Arena returns the batch's decode arena: the server decodes a wire batch
// into it, then plans the decoded tuples into the same batch, tying the
// tuple buffers' lifetime to the batch's refcount.
func (b *Batch) Arena() *stream.RecordArena { return &b.arena }

// task is one unit of worker work: one planned partition bucket of one
// statement, or a fence sentinel.
type task struct {
	st     *query.Statement
	pairs  []imps.HashedPair
	batch  *Batch
	worker int
	fence  *sync.WaitGroup
}

// New starts a pool of cfg.Workers workers over the engine's registered
// statements. The pool owns the engine's ingest path until Close; queries
// (Statement.Count) remain safe at any time.
func New(eng *query.Engine, cfg Config) (*Pool, error) {
	// Nonsensical knobs are rejected, not clamped: a negative value is
	// always a caller bug, and silently running one worker would mask it.
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("pipeline: worker count %d must be >= 1 (or 0 for the default)", cfg.Workers)
	}
	if cfg.QueueLen < 0 {
		return nil, fmt.Errorf("pipeline: queue length %d must be >= 1 (or 0 for the default)", cfg.QueueLen)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.QueueLen == 0 {
		cfg.QueueLen = 128
	}
	parts := 1
	for parts < cfg.Workers {
		parts *= 2
	}
	p := &Pool{
		cfg:     cfg,
		eng:     eng,
		workers: cfg.Workers,
		parts:   parts,
		queues:  make([]chan *task, cfg.Workers),
	}
	p.free.New = func() any { return &Batch{pool: p} }
	for _, st := range eng.Statements() {
		if st.Shared() {
			// Shared statements alias an owner's estimator; the owner's
			// tasks feed it exactly once per tuple.
			continue
		}
		p.first = append(p.first, len(p.owners)%p.workers)
		p.owners = append(p.owners, st)
	}
	for w := range p.queues {
		p.queues[w] = make(chan *task, cfg.QueueLen)
		p.wg.Add(1)
		go p.run(w)
	}
	return p, nil
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.workers }

// Partitions returns the partition count partition-safe statements plan
// against.
func (p *Pool) Partitions() int { return p.parts }

// NewBatch acquires a batch from the pool's free list (or allocates a
// fresh one). The caller decodes into its Arena, plans it with PlanInto,
// and either dispatches it — after which the pool releases it — or hands
// it back with Release on an admission failure.
func (p *Pool) NewBatch() *Batch {
	return p.free.Get().(*Batch)
}

// Plan acquires a batch and plans ts into it; see PlanInto.
func (p *Pool) Plan(ts []stream.Tuple) *Batch {
	return p.PlanInto(p.NewBatch(), ts)
}

// PlanInto runs every owner statement's Plan over ts — filters,
// projections, and for partition-safe estimators the one hashing of each
// key with the estimator's own functions — materializing the buckets
// Dispatch will fan out into the acquired batch's recycled buffers.
// Planning reads no mutable statement or pool state: any number of
// goroutines may plan concurrently while workers apply earlier batches. The
// caller hands ts to the batch and must not reuse it until the batch is
// applied (tuples decoded into b.Arena() satisfy this by construction).
func (p *Pool) PlanInto(b *Batch, ts []stream.Tuple) *Batch {
	b.n = len(ts)
	b.tasks = b.tasks[:0]
	if len(b.buckets) != len(p.owners)*p.parts {
		b.buckets = make([][]imps.HashedPair, len(p.owners)*p.parts)
	}
	for i, st := range p.owners {
		win := st.Plan(ts, p.parts, b.buckets[i*p.parts:(i+1)*p.parts], &b.keys)
		for part, bucket := range win {
			if len(bucket) == 0 {
				continue
			}
			b.tasks = append(b.tasks, task{st: st, pairs: bucket, worker: (p.first[i] + part) % p.workers, batch: b})
		}
	}
	return b
}

// Release hands an acquired batch back to the pool's free list without
// dispatching it — the admission-failure path (decode error after acquire,
// busy queue, shutdown). Never call it on a dispatched batch: dispatching
// transfers ownership, and the pool releases the batch itself when the last
// statement applies.
func (b *Batch) Release() { b.release() }

// release zeroes the batch's task headers — so a pooled batch pins neither
// its caller's tuple slice nor the statements — resets the arena, and
// returns the batch to the free list. The partition buckets keep their
// contents (capacity included); they are rewritten in place by the next
// plan, and at most one batch's worth of key bytes stays reachable per
// pooled batch in the interim.
func (b *Batch) release() {
	clear(b.tasks)
	b.tasks = b.tasks[:0]
	b.n = 0
	b.link = obs.Link{}
	b.arena.Reset()
	b.pool.free.Put(b)
}

// Dispatch enqueues a planned batch. Calls must come from one goroutine;
// the call order is the arrival order every estimator observes. Dispatch
// blocks when a worker queue is full (reporting saturation) and returns as
// soon as every task is enqueued — application completes asynchronously,
// signalled through OnApplied, after which the pool recycles the batch.
func (p *Pool) Dispatch(b *Batch) {
	if len(b.tasks) == 0 {
		p.applied(b)
		return
	}
	b.remaining.Store(int32(len(b.tasks)))
	for i := range b.tasks {
		t := &b.tasks[i]
		select {
		case p.queues[t.worker] <- t:
		default:
			if p.cfg.OnSaturated != nil {
				p.cfg.OnSaturated()
			}
			p.queues[t.worker] <- t
		}
	}
}

// finish drops one task's reference; the last drop applies the batch.
func (b *Batch) finish() {
	if b.remaining.Add(-1) == 0 {
		b.pool.applied(b)
	}
}

// applied publishes a fully applied batch: the engine's tuple total first,
// so a reader that learns of the batch through OnApplied (or through
// telemetry fed from it) never observes an engine that has not counted it.
// The batch is recycled afterwards — this is the single release point of
// the arena lifecycle, reached exactly once per dispatched batch.
func (p *Pool) applied(b *Batch) {
	p.eng.AddTuples(int64(b.n))
	if p.cfg.OnApplied != nil {
		p.cfg.OnApplied(b.n)
	}
	b.release()
}

// run is one worker: it applies its queue in FIFO order until Close.
func (p *Pool) run(w int) {
	defer p.wg.Done()
	tr := p.cfg.Tracer
	for t := range p.queues[w] {
		if t.fence != nil {
			t.fence.Done()
			continue
		}
		var start time.Time
		var link obs.Link
		if tr != nil {
			start = time.Now()
			link = t.batch.link
		}
		units := len(t.pairs)
		t.st.Apply(t.pairs)
		if tr != nil {
			tr.SpanLinked(link, obs.SpanApply, w, int64(units), start)
		}
		if p.cfg.OnTask != nil {
			p.cfg.OnTask(w, units)
		}
		// finish may recycle the batch (and this task's own memory): read
		// nothing from t after it.
		t.batch.finish()
	}
}

// Fence is the pool's barrier: it returns only after every task dispatched
// before the call has been applied and accounted (OnApplied included).
// Like Dispatch, it must be called from the dispatcher goroutine — the
// FIFO queues make a sentinel per worker a full barrier. The caller may
// then read or marshal estimator state with no task in flight.
func (p *Pool) Fence() {
	var wg sync.WaitGroup
	wg.Add(len(p.queues))
	f := task{fence: &wg}
	for w := range p.queues {
		p.queues[w] <- &f
	}
	wg.Wait()
}

// Close drains every queue and stops the workers. Dispatch must not be
// called after (or concurrently with) Close.
func (p *Pool) Close() {
	for w := range p.queues {
		close(p.queues[w])
	}
	p.wg.Wait()
}
