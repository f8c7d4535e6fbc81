// The ingest queue: producers admit planned batches into one bounded FIFO
// queue, and one dispatcher goroutine pops them in arrival order and is the
// only caller of its pool's Dispatch, so per-partition FIFO order
// (DESIGN.md §7) holds exactly as for a single producer.
package pipeline

import (
	"sync"
	"time"

	"implicate/internal/obs"
)

// PopTuples bounds the tuples one dispatcher wake-up pops off the queue:
// it pops head batches while their tuple total stays within it, and always
// at least one batch, so a wake-up hands the pool roughly one budget of
// work before producers see room again.
const PopTuples = 2048

// Queue is a bounded FIFO of planned batches drained into one Pool by its
// own dispatcher goroutine. Enqueue and TryEnqueue are safe for concurrent
// use by any number of producers. NewQueue starts the dispatcher; Close
// drains everything admitted and stops it.
type Queue struct {
	mu     sync.Mutex
	work   sync.Cond // batches queued, or closing
	room   sync.Cond // the dispatcher popped batches, or closing
	q      []*Batch
	cap    int
	pool   *Pool
	closed bool
	done   chan struct{}

	// after, when set, runs in the dispatcher goroutine right after each
	// batch is dispatched, with the batch's inbound trace link, its tuple
	// count and the clock read taken just before the dispatch — the legal
	// place to Fence the pool (periodic checkpoints).
	after func(link obs.Link, tuples int, start time.Time)
	// gate, when set, runs in the dispatcher goroutine before each batch is
	// handed to the pool — a test seam for deterministic queue states.
	gate func()
}

// NewQueue starts a dispatcher draining a queue of the given capacity in
// batches (minimum 1) into pool. after and gate, if non-nil, are the
// per-batch hooks documented on Queue.
func NewQueue(pool *Pool, capacity int, after func(link obs.Link, tuples int, start time.Time), gate func()) *Queue {
	q := &Queue{cap: max(capacity, 1), pool: pool, after: after, gate: gate, done: make(chan struct{})}
	q.work.L = &q.mu
	q.room.L = &q.mu
	go q.loop()
	return q
}

// Close stops admission, waits for the dispatcher to dispatch everything
// already admitted, and stops it. The pool still holds in-flight work —
// the caller fences and closes it.
func (q *Queue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		q.work.Broadcast()
		q.room.Broadcast()
	}
	q.mu.Unlock()
	<-q.done
}

// TryEnqueue admits a planned batch if the queue has room, reporting false
// (a Busy reply) when it does not or when the queue is closed. On success
// the batch belongs to the dispatcher — the caller must not touch it again.
// The returned depth is the batch's own deterministic queue-depth sample
// for the high-water telemetry.
func (q *Queue) TryEnqueue(b *Batch) (depth int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.q) >= q.cap {
		return 0, false
	}
	return q.push(b), true
}

// Enqueue admits a planned batch, blocking while the queue is full — the
// BlockOnFull backpressure mode. It reports false only when the queue
// closed before the batch was admitted (the batch then still belongs to
// the caller, who should Release it).
func (q *Queue) Enqueue(b *Batch) (depth int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && len(q.q) >= q.cap {
		q.room.Wait()
	}
	if q.closed {
		return 0, false
	}
	return q.push(b), true
}

// push appends under q.mu, wakes the dispatcher and returns the depth.
func (q *Queue) push(b *Batch) int {
	q.q = append(q.q, b)
	q.work.Broadcast()
	return len(q.q)
}

// Closed reports whether the queue has stopped accepting batches. Callers
// use it to tell a terminal refusal from transient backpressure.
func (q *Queue) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// loop is the dispatcher. Each wake-up pops head batches while their tuple
// total stays within PopTuples (an empty batch counts as one tuple, and at
// least one batch is always popped), signals room, and dispatches them
// outside q.mu, so producers keep enqueueing while the pool absorbs a
// batch (Dispatch can block on a saturated worker queue).
func (q *Queue) loop() {
	defer close(q.done)
	var run []*Batch
	q.mu.Lock()
	for {
		for len(q.q) == 0 {
			if q.closed {
				q.mu.Unlock()
				return
			}
			q.work.Wait()
		}
		run = run[:0]
		for popped := 0; len(q.q) > 0; {
			if popped += max(q.q[0].n, 1); len(run) > 0 && popped > PopTuples {
				break
			}
			run = append(run, q.q[0])
			q.q[0] = nil
			q.q = q.q[1:]
		}
		q.room.Broadcast()
		q.mu.Unlock()
		for _, b := range run {
			if q.gate != nil {
				q.gate()
			}
			// The tuple count and trace link are read before Dispatch:
			// admitting the batch hands it to the pool, which may recycle it.
			tuples, link := b.n, b.link
			var start time.Time
			if q.after != nil {
				start = time.Now()
			}
			q.pool.Dispatch(b)
			if q.after != nil {
				q.after(link, tuples, start)
			}
		}
		q.mu.Lock()
	}
}
