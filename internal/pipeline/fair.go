// Fair-share admission: a Fair dispatcher owns one bounded FIFO lane per
// tenant and drains them with deficit round robin, so a tenant that floods
// its lane can delay only its own batches — every other lane keeps
// receiving its weighted share of dispatch capacity. Each lane feeds its
// own Pool (tenants do not share estimator state). One dispatcher
// goroutine pops each lane in admission order and is the only caller of
// its pool's Dispatch, so per-partition FIFO order (DESIGN.md §7) holds
// exactly as for a single producer.
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

// Fair is the multi-lane dispatcher. NewFair starts its goroutine; Close
// drains every lane and stops it.
type Fair struct {
	mu      sync.Mutex
	work    sync.Cond // batches queued, or closing
	lanes   []*Lane
	quantum int
	closed  bool
	done    chan struct{}

	// gate, when set, runs in the dispatcher goroutine before each batch is
	// handed to its pool — the server's test seam for deterministic queue
	// states. Install with SetGate before batches are enqueued.
	gate func()
}

// Lane is one tenant's bounded ingest queue. Enqueue/TryEnqueue are safe
// for concurrent use by any number of producers; batches leave in arrival
// order toward the lane's pool.
type Lane struct {
	f      *Fair
	weight int
	cap    int
	pool   *Pool
	// after, when set, runs in the dispatcher goroutine right after each of
	// this lane's batches is dispatched, with the batch's inbound trace
	// link, its tuple count and the clock read taken just before the
	// dispatch — the legal place to Fence the lane's pool (periodic
	// checkpoints).
	after func(link obs.Link, tuples int, start time.Time)

	// q holds admitted batches not yet popped by the dispatcher.
	q []*Batch
	// deficit is the lane's DRR credit in tuples.
	deficit int64
	// inflight counts batches popped but not yet through dispatch;
	// RemoveLane waits for q and inflight to reach zero, so the lane's pool
	// is quiescent from the dispatcher's side when it returns.
	inflight  int
	room      sync.Cond // lane drained below cap, or lane/dispatcher closing
	closed    bool
	highWater int64
}

// NewFair starts a fair-share dispatcher with the DefaultQuantum.
func NewFair() *Fair { return newFair(DefaultQuantum) }

func newFair(quantum int) *Fair {
	f := &Fair{quantum: quantum, done: make(chan struct{})}
	f.work.L = &f.mu
	go f.loop()
	return f
}

// SetGate installs the pre-dispatch hook. Call it before any batch is
// enqueued; the dispatcher snapshots it under the lock each round.
func (f *Fair) SetGate(fn func()) {
	f.mu.Lock()
	f.gate = fn
	f.mu.Unlock()
}

// AddLane registers a lane draining into pool with the given dispatch
// weight (minimum 1) and queue capacity in batches (minimum 1). after, if
// non-nil, runs after each of the lane's batches is dispatched. Safe to
// call while other lanes are live.
func (f *Fair) AddLane(weight, capacity int, pool *Pool, after func(link obs.Link, tuples int, start time.Time)) *Lane {
	l := &Lane{f: f, weight: max(weight, 1), cap: max(capacity, 1), pool: pool, after: after}
	l.room.L = &f.mu
	f.mu.Lock()
	f.lanes = append(f.lanes, l)
	f.mu.Unlock()
	return l
}

// RemoveLane stops a lane accepting batches, waits until the dispatcher
// has dispatched what it already accepted, and unregisters it. When it
// returns, the dispatcher will never touch the lane's pool again — the
// caller may fence and close the pool from its own goroutine. The lane's
// pool still holds in-flight tasks until that fence.
func (f *Fair) RemoveLane(l *Lane) {
	f.mu.Lock()
	l.closed = true
	l.room.Broadcast()
	f.work.Broadcast()
	// No f.closed escape hatch: while the lane is still registered the
	// dispatcher drains it even in closed mode, so the wait always ends.
	for len(l.q) > 0 || l.inflight > 0 {
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

// Close stops admission on every lane, waits for the dispatcher to drain
// and dispatch everything already accepted, and stops it. The lanes' pools
// still hold in-flight work — the caller fences and closes them.
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
	<-f.done
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
	depth = l.push(b)
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
	depth = l.push(b)
	f.mu.Unlock()
	return depth, true
}

// push appends under f.mu, folds the depth into the high-water mark, wakes
// the dispatcher and returns the depth.
func (l *Lane) push(b *Batch) int {
	l.q = append(l.q, b)
	if d := int64(len(l.q)); d > l.highWater {
		l.highWater = d
	}
	l.f.work.Broadcast()
	return len(l.q)
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

// cost is a batch's deficit price. Empty batches still cost one unit so a
// flood of them cannot dispatch unbounded work in one visit.
func cost(b *Batch) int64 { return int64(max(b.n, 1)) }

// loop is the dispatcher: deficit round robin over the lanes. Each round
// visits every backlogged lane, credits it quantum×weight, and pops head
// batches while the credit covers them; an empty lane's credit resets so
// idle time never banks priority. Dispatch itself (which can block on a
// saturated worker queue) runs outside f.mu, so producers keep enqueueing
// while one pool absorbs a batch.
func (f *Fair) loop() {
	defer close(f.done)
	var run []*Batch
	f.mu.Lock()
	for {
		busy := false
		for i := 0; i < len(f.lanes); i++ {
			l := f.lanes[i]
			if len(l.q) == 0 {
				l.deficit = 0
				continue
			}
			busy = true
			l.deficit += int64(f.quantum) * int64(l.weight)
			run = run[:0]
			for len(l.q) > 0 && cost(l.q[0]) <= l.deficit {
				l.deficit -= cost(l.q[0])
				run = append(run, l.q[0])
				l.q[0] = nil
				l.q = l.q[1:]
			}
			if len(l.q) == 0 {
				l.deficit = 0
			}
			if len(run) == 0 {
				continue
			}
			l.inflight += len(run)
			gate := f.gate
			l.room.Broadcast()
			f.mu.Unlock()
			for _, b := range run {
				if gate != nil {
					gate()
				}
				// The tuple count and trace link are read before Dispatch:
				// admitting the batch hands it to the pool, which may
				// recycle it.
				tuples, link := b.n, b.link
				var start time.Time
				if l.after != nil {
					start = time.Now()
				}
				l.pool.Dispatch(b)
				if l.after != nil {
					l.after(link, tuples, start)
				}
			}
			f.mu.Lock()
			l.inflight -= len(run)
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
