// Fair-share admission: a Fair dispatcher owns one bounded FIFO lane per
// tenant and drains them with deficit round robin, so a tenant that floods
// its lane can delay only its own batches — every other lane keeps
// receiving its weighted share of dispatch capacity. Each lane feeds its
// own Pool (tenants do not share estimator state).
//
// Dispatch itself is sharded (DESIGN.md §14): NewFair starts S dispatcher
// goroutines, and a sharded lane's batches are dispatched cooperatively —
// shard k enqueues the tasks owned by workers w with w % S == k, each
// shard walking the lane in admission order. Worker queues are single-
// producer again (worker w hears only from shard w % S), so per-partition
// FIFO order — the only order the bit-identity argument needs — survives
// exactly as under the single dispatcher, while S readers' worth of
// enqueue work proceeds in parallel. Lanes that installed an after hook
// stay serial (dispatched whole, by shard 0 only): the hook is the legal
// fence point for periodic checkpoints, and a fence is only
// prefix-consistent when no other shard can have raced ahead with a later
// batch's tasks.
package pipeline

import (
	"sync"
	"time"

	"implicate/internal/obs"
)

// DefaultQuantum is the per-round deficit credit in tuples a weight-1 lane
// earns. Batches cost their tuple count; a lane may dispatch while its
// accumulated credit covers the head batch, so the quantum bounds how far
// one visit can overshoot the weighted share (one batch's worth).
const DefaultQuantum = 2048

// Fair is the multi-lane dispatcher. NewFair starts its goroutines; Close
// drains every lane and stops them.
type Fair struct {
	mu      sync.Mutex
	work    sync.Cond // batches queued, or closing
	lanes   []*Lane
	quantum int
	shards  int
	closed  bool
	wg      sync.WaitGroup

	// gate, when set, runs in a dispatcher goroutine before each batch (or
	// batch shard) is handed to its pool — the server's test seam for
	// deterministic queue states. Install with SetGate before batches are
	// enqueued.
	gate func()

	// afterDispatch, when set, observes every dispatched batch (once, by
	// tuple count — the batch itself may already be recycled) from a
	// dispatcher goroutine — a test hook for drain-order properties.
	afterDispatch func(l *Lane, tuples int)
}

// laneEntry is one queued batch plus its admission-time tuple count. The
// count is captured at push because the pool recycles the batch the moment
// its last task applies — possibly before another dispatch shard, or a
// hook, would have read b.Tuples().
type laneEntry struct {
	b      *Batch
	tuples int
}

// Lane is one tenant's bounded ingest queue. Enqueue/TryEnqueue are safe
// for concurrent use by any number of producers; batches leave in arrival
// order toward the lane's pool.
type Lane struct {
	f      *Fair
	name   string
	weight int
	cap    int
	pool   *Pool
	// shards is how many dispatcher goroutines cooperate on this lane: the
	// Fair's shard count, or 1 when an after hook pins the lane to the
	// serial path.
	shards int
	// after, when set, runs in the dispatcher goroutine right after each of
	// this lane's batches is dispatched, with the batch's inbound trace
	// link, its tuple count and the clock read taken just before the
	// dispatch — the legal place to Fence the lane's pool (periodic
	// checkpoints), since a lane with an after hook is dispatched by exactly
	// one goroutine.
	after func(link obs.Link, tuples int, start time.Time)

	// q holds admitted entries not yet consumed by every shard; base is the
	// absolute admission index of q[0], and pos[k] the absolute index of
	// the next entry shard k will dispatch. An entry leaves q once min(pos)
	// passes it.
	q    []laneEntry
	base int64
	pos  []int64
	// deficit is each shard's DRR credit. Shards run the same weighted
	// round robin independently; since every shard dispatches a slice of
	// every batch, symmetric per-shard credit preserves the lane-level
	// weighted shares.
	deficit []int64
	// inflight counts, per shard, entries popped but not yet through
	// dispatch; RemoveLane waits for q and every shard's inflight to reach
	// zero, so the lane's pool is quiescent from the dispatchers' side when
	// it returns.
	inflight  []int
	room      sync.Cond // lane drained below cap, or lane/dispatcher closing
	closed    bool
	highWater int64
	// tasks counts worker tasks each shard has enqueued, and shardHW is
	// each shard's deepest unconsumed backlog in batches — together the
	// shard-imbalance telemetry (a shard whose task share or backlog runs
	// hot owns a skewed slice of the worker pool).
	tasks   []int64
	shardHW []int64
}

// ShardStat is one dispatch shard's accumulated counters.
type ShardStat struct {
	// Tasks is the number of worker tasks the shard enqueued.
	Tasks int64
	// HighWater is the deepest backlog (admitted entries not yet consumed
	// by this shard) observed, in batches.
	HighWater int64
}

// ShardStats returns a copy of the lane's per-shard counters, indexed by
// dispatch shard.
func (l *Lane) ShardStats() []ShardStat {
	l.f.mu.Lock()
	defer l.f.mu.Unlock()
	out := make([]ShardStat, l.shards)
	for k := 0; k < l.shards; k++ {
		out[k] = ShardStat{Tasks: l.tasks[k], HighWater: l.shardHW[k]}
	}
	return out
}

// NewFair starts a fair-share dispatcher with the given per-round quantum
// in tuples (0 selects DefaultQuantum) and the given dispatch shard count
// (values below 1 select the single-dispatcher mode, which behaves exactly
// like the pre-sharding Fair).
func NewFair(quantum, shards int) *Fair {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	if shards < 1 {
		shards = 1
	}
	f := &Fair{quantum: quantum, shards: shards}
	f.work.L = &f.mu
	f.wg.Add(shards)
	for k := 0; k < shards; k++ {
		go f.loop(k)
	}
	return f
}

// Shards returns the dispatcher goroutine count.
func (f *Fair) Shards() int { return f.shards }

// SetGate installs the pre-dispatch hook. Call it before any batch is
// enqueued; the dispatchers snapshot it under the lock each round. With
// more than one shard the hook runs once per batch per shard, possibly
// concurrently.
func (f *Fair) SetGate(fn func()) {
	f.mu.Lock()
	f.gate = fn
	f.mu.Unlock()
}

// AddLane registers a lane draining into pool with the given dispatch
// weight (minimum 1) and queue capacity in batches (minimum 1). after, if
// non-nil, runs after each of the lane's batches is dispatched and forces
// the lane onto the serial (single-shard) dispatch path — the fence a
// checkpoint hook takes is only prefix-consistent when one goroutine owns
// the lane's whole dispatch order. Safe to call while other lanes are live.
func (f *Fair) AddLane(name string, weight, capacity int, pool *Pool, after func(link obs.Link, tuples int, start time.Time)) *Lane {
	if weight < 1 {
		weight = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	shards := f.shards
	if after != nil {
		shards = 1
	}
	l := &Lane{
		f: f, name: name, weight: weight, cap: capacity, pool: pool,
		after: after, shards: shards,
		pos:      make([]int64, shards),
		deficit:  make([]int64, shards),
		inflight: make([]int, shards),
		tasks:    make([]int64, shards),
		shardHW:  make([]int64, shards),
	}
	l.room.L = &f.mu
	f.mu.Lock()
	f.lanes = append(f.lanes, l)
	f.mu.Unlock()
	return l
}

// RemoveLane stops a lane accepting batches, waits until the dispatchers
// have dispatched what it already accepted, and unregisters it. When it
// returns, no dispatcher will ever touch the lane's pool again — the
// caller may fence and close the pool from its own goroutine. The lane's
// pool still holds in-flight tasks until that fence.
func (f *Fair) RemoveLane(l *Lane) {
	f.mu.Lock()
	l.closed = true
	l.room.Broadcast()
	f.work.Broadcast()
	// No f.closed escape hatch: while the lane is still registered the
	// dispatchers drain it even in closed mode, so the wait always ends.
	for len(l.q) > 0 || l.anyInflight() {
		l.room.Wait()
	}
	for i, el := range f.lanes {
		if el == l {
			f.lanes = append(f.lanes[:i], f.lanes[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
}

// anyInflight reports whether any shard holds popped, undischarged
// entries; caller holds f.mu.
func (l *Lane) anyInflight() bool {
	for _, n := range l.inflight {
		if n > 0 {
			return true
		}
	}
	return false
}

// Close stops admission on every lane, waits for the dispatchers to drain
// and dispatch everything already accepted, and stops them. The lanes'
// pools still hold in-flight work — the caller fences and closes them.
func (f *Fair) Close() {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		f.work.Broadcast()
		for _, l := range f.lanes {
			l.room.Broadcast()
		}
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// TryEnqueue admits a planned batch if the lane has room, reporting false
// (a Busy reply, or a drop on the UDP lane) when it does not or when the
// lane is closed. On success the batch belongs to the dispatcher — the
// caller must not touch it again. The returned depth is the batch's own
// deterministic queue-depth sample for the high-water telemetry.
func (l *Lane) TryEnqueue(b *Batch) (depth int, ok bool) {
	f := l.f
	f.mu.Lock()
	if l.closed || f.closed || len(l.q) >= l.cap {
		f.mu.Unlock()
		return 0, false
	}
	l.push(b)
	depth = len(l.q)
	f.work.Broadcast()
	f.mu.Unlock()
	return depth, true
}

// Enqueue admits a planned batch, blocking while the lane is full — the
// BlockOnFull backpressure mode. It reports false only when the lane or
// dispatcher closed before the batch was admitted (the batch then still
// belongs to the caller, who should Release it).
func (l *Lane) Enqueue(b *Batch) (depth int, ok bool) {
	f := l.f
	f.mu.Lock()
	for !l.closed && !f.closed && len(l.q) >= l.cap {
		l.room.Wait()
	}
	if l.closed || f.closed {
		f.mu.Unlock()
		return 0, false
	}
	l.push(b)
	depth = len(l.q)
	f.work.Broadcast()
	f.mu.Unlock()
	return depth, true
}

// push appends under f.mu, arms a sharded batch's dispatch guards, and
// folds the depth into the high-water mark.
func (l *Lane) push(b *Batch) {
	if l.shards > 1 {
		b.prepareShared(l.shards)
	}
	l.q = append(l.q, laneEntry{b: b, tuples: b.Tuples()})
	if d := int64(len(l.q)); d > l.highWater {
		l.highWater = d
	}
	end := l.base + int64(len(l.q))
	for k := 0; k < l.shards; k++ {
		if d := end - l.pos[k]; d > l.shardHW[k] {
			l.shardHW[k] = d
		}
	}
}

// Closed reports whether the lane has stopped accepting batches — removed,
// or the dispatcher closed. Callers use it to distinguish a terminal
// refusal from transient backpressure.
func (l *Lane) Closed() bool {
	l.f.mu.Lock()
	defer l.f.mu.Unlock()
	return l.closed || l.f.closed
}

// HighWater returns the deepest the lane has been.
func (l *Lane) HighWater() int64 {
	l.f.mu.Lock()
	defer l.f.mu.Unlock()
	return l.highWater
}

// Pool returns the pool the lane drains into.
func (l *Lane) Pool() *Pool { return l.pool }

// Name returns the lane's tenant name.
func (l *Lane) Name() string { return l.name }

// ecost is an entry's deficit price. Empty batches still cost one unit so
// a flood of them cannot dispatch unbounded work in one visit.
func ecost(e laneEntry) int64 {
	if n := int64(e.tuples); n > 1 {
		return n
	}
	return 1
}

// advance retires fully consumed head entries — those every participating
// shard's cursor has passed — dropping their batch references; caller
// holds f.mu.
func (l *Lane) advance() {
	m := l.pos[0]
	for _, p := range l.pos[1:] {
		if p < m {
			m = p
		}
	}
	for l.base < m && len(l.q) > 0 {
		l.q[0] = laneEntry{}
		l.q = l.q[1:]
		l.base++
	}
}

// loop is dispatcher shard k: deficit round robin over the lanes this
// shard participates in. Each round visits every backlogged lane, credits
// it quantum×weight, and dispatches head entries while the credit covers
// them; an empty lane's credit resets so idle time never banks priority.
// Dispatch itself (which can block on a saturated worker queue) runs
// outside f.mu, so producers keep enqueueing and other lanes keep
// dispatching while one pool absorbs a batch.
func (f *Fair) loop(k int) {
	defer f.wg.Done()
	var run []laneEntry
	f.mu.Lock()
	for {
		busy := false
		for i := 0; i < len(f.lanes); i++ {
			l := f.lanes[i]
			if k >= l.shards {
				continue
			}
			end := l.base + int64(len(l.q))
			if l.pos[k] == end {
				l.deficit[k] = 0
				continue
			}
			busy = true
			l.deficit[k] += int64(f.quantum) * int64(l.weight)
			run = run[:0]
			for l.pos[k] < end {
				e := l.q[l.pos[k]-l.base]
				if ecost(e) > l.deficit[k] {
					break
				}
				l.deficit[k] -= ecost(e)
				run = append(run, e)
				l.pos[k]++
			}
			if l.pos[k] == end {
				l.deficit[k] = 0
			}
			if len(run) == 0 {
				continue
			}
			l.inflight[k] += len(run)
			gate := f.gate
			l.advance()
			l.room.Broadcast()
			f.mu.Unlock()
			tasks := int64(0)
			for _, e := range run {
				if gate != nil {
					gate()
				}
				if l.shards == 1 {
					// Serial lane: whole-batch dispatch plus the inline
					// hooks, exactly the single-dispatcher semantics. The
					// task count and trace link are read before Dispatch —
					// admitting the batch hands it to the pool, which may
					// recycle it.
					tasks += int64(len(e.b.tasks))
					var start time.Time
					var link obs.Link
					if l.after != nil {
						start = time.Now()
						link = e.b.link
					}
					l.pool.Dispatch(e.b)
					if f.afterDispatch != nil {
						f.afterDispatch(l, e.tuples)
					}
					if l.after != nil {
						l.after(link, e.tuples, start)
					}
					continue
				}
				tasks += int64(l.pool.DispatchShard(e.b, k, l.shards))
				if k == 0 && f.afterDispatch != nil {
					f.afterDispatch(l, e.tuples)
				}
			}
			f.mu.Lock()
			l.tasks[k] += tasks
			l.inflight[k] -= len(run)
			l.advance()
			l.room.Broadcast()
		}
		if busy {
			continue
		}
		if f.closed {
			f.mu.Unlock()
			return
		}
		f.work.Wait()
	}
}
