package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"implicate/internal/obs"
	"implicate/internal/query"
	"implicate/internal/stream"
)

// emptyPool builds a pool over an empty engine: batches carry a tuple count
// but no tasks, so Dispatch applies them synchronously in the dispatcher
// goroutine — drain order is exactly dispatch order.
func emptyPool(t *testing.T) *Pool {
	t.Helper()
	p, err := New(query.NewEngine(testSchema(t)), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// planN plans a batch of n empty tuples (no estimator work).
func planN(p *Pool, n int) *Batch {
	return p.Plan(make([]stream.Tuple, n))
}

// TestFairLaneOrderAndBounds pins the contracts the server depends on:
// FIFO dispatch order (the bit-identity prerequisite), TryEnqueue refusing
// at capacity, and Close draining what was admitted.
func TestFairLaneOrderAndBounds(t *testing.T) {
	var mu sync.Mutex
	var order []int
	p := emptyPool(t)
	q := NewQueue(p, 1000, func(_ obs.Link, tuples int, _ time.Time) {
		mu.Lock()
		order = append(order, tuples)
		mu.Unlock()
	}, nil)
	const n = 200
	for i := 1; i <= n; i++ {
		if _, ok := q.Enqueue(planN(p, i)); !ok {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	q.Close()
	mu.Lock()
	if len(order) != n {
		t.Fatalf("dispatched %d batches, want %d", len(order), n)
	}
	for i, tuples := range order {
		if tuples != i+1 {
			t.Fatalf("batch %d dispatched with %d tuples, want %d (FIFO violated)", i, tuples, i+1)
		}
	}
	mu.Unlock()
	if !q.Closed() {
		t.Fatal("closed queue reports open")
	}
	if _, ok := q.Enqueue(planN(p, 1)); ok {
		t.Fatal("closed queue accepted a batch")
	}
	if _, ok := q.TryEnqueue(planN(p, 1)); ok {
		t.Fatal("closed queue accepted a batch")
	}

	// A capacity-1 queue refuses a TryEnqueue while the dispatcher is held
	// off the first batch.
	gate := make(chan struct{})
	q2 := NewQueue(p, 1, func(obs.Link, int, time.Time) { <-gate }, nil)
	if _, ok := q2.TryEnqueue(planN(p, 1)); !ok {
		t.Fatal("first TryEnqueue refused")
	}
	refused := false
	for i := 0; i < 100 && !refused; i++ {
		_, ok := q2.TryEnqueue(planN(p, 1))
		refused = !ok
	}
	close(gate)
	q2.Close()
	if !refused {
		t.Fatal("full queue never refused TryEnqueue")
	}
	if _, ok := q2.TryEnqueue(planN(p, 1)); ok {
		t.Fatal("closed dispatcher accepted a batch")
	}
}

// TestFairAfterHook checks the after hook runs in the dispatcher goroutine
// after each batch — the periodic-checkpoint seam — by having it Fence the
// pool, which is only legal from the dispatching goroutine; and that the
// gate hook runs once before each batch.
func TestFairAfterHook(t *testing.T) {
	p := emptyPool(t)
	var fenced, gated atomic.Int64
	q := NewQueue(p, 16, func(_ obs.Link, tuples int, _ time.Time) {
		p.Fence()
		fenced.Add(1)
	}, func() { gated.Add(1) })
	for i := 0; i < 10; i++ {
		q.Enqueue(planN(p, 8))
	}
	q.Close()
	if fenced.Load() != 10 {
		t.Fatalf("after hook ran %d times, want 10", fenced.Load())
	}
	if gated.Load() != 10 {
		t.Fatalf("gate hook ran %d times, want 10", gated.Load())
	}
}

// TestQueuePopBudget holds the dispatcher on a first batch, queues five
// more and records the queue depth before each is dispatched: a wake-up
// pops head batches while their tuples stay within PopTuples, and one
// batch even when it alone exceeds the budget.
func TestQueuePopBudget(t *testing.T) {
	p := emptyPool(t)
	entered, hold := make(chan struct{}), make(chan struct{})
	var q *Queue
	var depths []int // only the dispatcher touches it until Close returns
	gate := func() {
		if entered != nil {
			close(entered)
			entered = nil
			<-hold
			return
		}
		q.mu.Lock()
		depths = append(depths, len(q.q))
		q.mu.Unlock()
	}
	q = NewQueue(p, 64, nil, gate)
	wait := entered
	q.Enqueue(planN(p, 1))
	<-wait
	sizes := []int{1000, 1000, 1000, 5000, 100}
	for _, n := range sizes {
		q.Enqueue(planN(p, n))
	}
	if PopTuples != 2048 {
		t.Fatalf("PopTuples %d; the depths below assume 2048", PopTuples)
	}
	close(hold)
	q.Close()
	// Wake-ups pop {1000, 1000}, {1000}, {5000}, {100}.
	want := []int{3, 3, 2, 1, 0}
	if fmt.Sprint(depths) != fmt.Sprint(want) {
		t.Fatalf("queue depths before each dispatch %v, want %v", depths, want)
	}
}
