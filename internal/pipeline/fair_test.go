package pipeline

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"implicate/internal/obs"
	"implicate/internal/query"
	"implicate/internal/stream"
)

// fairPool builds a pool over an empty engine: batches carry a tuple count
// but no tasks, so Dispatch applies them synchronously in the dispatcher
// goroutine — drain order is exactly dispatch order.
func fairPool(t *testing.T) *Pool {
	t.Helper()
	p, err := New(query.NewEngine(testSchema(t)), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// planN plans a batch of n empty tuples (cost n, no estimator work).
func planN(p *Pool, n int) *Batch {
	return p.Plan(make([]stream.Tuple, n))
}

// countDispatch returns a lane after hook that counts the lane's batches
// in n until total, the count over every lane, reaches limit. It throttles
// the dispatcher so the blocking producers keep every lane backlogged —
// the regime DRR's guarantee speaks to.
func countDispatch(n, total *atomic.Int64, limit int64) func(obs.Link, int, time.Time) {
	return func(obs.Link, int, time.Time) {
		if total.Add(1) <= limit {
			n.Add(1)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// produce starts conns goroutines that keep enqueueing 64-tuple batches on
// l until stop closes.
func produce(wg *sync.WaitGroup, stop <-chan struct{}, l *Lane, p *Pool, conns int) {
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.Enqueue(planN(p, 64))
			}
		}()
	}
}

// TestFairDRRWeights saturates two lanes with equal-cost batches and
// checks the drained share tracks the 3:1 dispatch weights.
func TestFairDRRWeights(t *testing.T) {
	// Quantum 64 = one batch of credit per weight unit per round; deep
	// backlogged lanes make the credit (not the backlog) the binding
	// constraint, which is where the weights bite.
	f := newFair(64)
	var a, b, dispatched atomic.Int64
	const observe = 400
	pa, pb := fairPool(t), fairPool(t)
	la := f.AddLane(3, 32, pa, countDispatch(&a, &dispatched, observe))
	lb := f.AddLane(1, 32, pb, countDispatch(&b, &dispatched, observe))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	produce(&wg, stop, la, pa, 1)
	produce(&wg, stop, lb, pb, 1)
	for dispatched.Load() < observe {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	f.Close()
	wg.Wait()

	got := float64(a.Load()) / float64(b.Load())
	if got < 2.0 || got > 4.5 {
		t.Fatalf("drain ratio a:b = %d:%d = %.2f, want ~3.0", a.Load(), b.Load(), got)
	}
}

// TestFairEqualShareUnderSkewedLoad offers 10:1 load on equal weights: the
// flooding lane must not push the steady lane below ~half the drained
// batches. This is the noisy-neighbor property at the dispatch layer.
func TestFairEqualShareUnderSkewedLoad(t *testing.T) {
	f := newFair(256)
	var flood, steady, dispatched atomic.Int64
	const observe = 400
	pf, ps := fairPool(t), fairPool(t)
	lf := f.AddLane(1, 8, pf, countDispatch(&flood, &dispatched, observe))
	ls := f.AddLane(1, 8, ps, countDispatch(&steady, &dispatched, observe))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	produce(&wg, stop, lf, pf, 10) // 10× the offered load...
	produce(&wg, stop, ls, ps, 1)  // ...but the same dispatch weight.
	for dispatched.Load() < observe {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	f.Close()
	wg.Wait()

	got := float64(steady.Load()) / float64(flood.Load()+steady.Load())
	if got < 0.35 {
		t.Fatalf("steady lane drained share %.2f (%d of %d), want ~0.5 despite 10:1 offered load",
			got, steady.Load(), flood.Load()+steady.Load())
	}
}

// TestFairLaneOrderAndBounds pins the contracts the server depends on:
// per-lane FIFO dispatch order (the bit-identity prerequisite), TryEnqueue
// refusing at capacity, and RemoveLane/Close draining what was admitted.
func TestFairLaneOrderAndBounds(t *testing.T) {
	f := NewFair()
	var mu sync.Mutex
	var order []int
	p := fairPool(t)
	l := f.AddLane(1, 1000, p, func(_ obs.Link, tuples int, _ time.Time) {
		mu.Lock()
		order = append(order, tuples)
		mu.Unlock()
	})
	const n = 200
	for i := 1; i <= n; i++ {
		if _, ok := l.Enqueue(planN(p, i)); !ok {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	f.RemoveLane(l)
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
	if l.HighWater() == 0 {
		t.Fatal("high-water mark never advanced")
	}
	if _, ok := l.Enqueue(planN(p, 1)); ok {
		t.Fatal("removed lane accepted a batch")
	}
	if _, ok := l.TryEnqueue(planN(p, 1)); ok {
		t.Fatal("removed lane accepted a batch")
	}

	// A capacity-1 lane refuses the second TryEnqueue while the dispatcher
	// is held off the first.
	f2 := NewFair()
	gate := make(chan struct{})
	l2 := f2.AddLane(1, 1, p, func(obs.Link, int, time.Time) { <-gate })
	if _, ok := l2.TryEnqueue(planN(p, 1)); !ok {
		t.Fatal("first TryEnqueue refused")
	}
	refused := false
	for i := 0; i < 100 && !refused; i++ {
		_, ok := l2.TryEnqueue(planN(p, 1))
		refused = !ok
	}
	close(gate)
	f2.Close()
	if !refused {
		t.Fatal("full lane never refused TryEnqueue")
	}
	if _, ok := l2.TryEnqueue(planN(p, 1)); ok {
		t.Fatal("closed dispatcher accepted a batch")
	}
}

// TestFairAfterHook checks the per-lane after hook runs in the dispatcher
// goroutine after each batch — the periodic-checkpoint seam — by having it
// Fence the lane's pool, which is only legal from the dispatching
// goroutine.
func TestFairAfterHook(t *testing.T) {
	f := NewFair()
	p := fairPool(t)
	var fenced atomic.Int64
	l := f.AddLane(1, 16, p, func(_ obs.Link, tuples int, _ time.Time) {
		p.Fence()
		fenced.Add(1)
	})
	for i := 0; i < 10; i++ {
		l.Enqueue(planN(p, 8))
	}
	f.Close()
	if fenced.Load() != 10 {
		t.Fatalf("after hook ran %d times, want 10", fenced.Load())
	}
}
