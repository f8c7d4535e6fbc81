// Per-leaf state: the journal of routed batches, the feeder that delivers
// them in order, the prober that watches liveness, and the recovery
// sequence that re-admits a crashed leaf.
//
// The journal is the coordinator's replay log. Routed records collect in
// its open tail, which is sealed into an entry — a batch with its
// cumulative tuple offset — before it is sent, and no entry is ever re-sent
// out of order. Because the leaf's engine only ever receives
// whole journal batches, every offset the leaf can checkpoint at — the
// server checkpoints between dispatched batches — lands exactly on a
// journal entry boundary. Recovery exploits that: restart the leaf from its
// checkpoint, read back its restored applied-tuple count, seek the journal
// to that boundary, and replay forward. A restored count that is NOT a
// boundary means the leaf ingested tuples this coordinator never routed to
// it, and recovery fails sticky rather than guess.
//
// Delivery ambiguity resolves the same way: an IngestBatch whose connection
// died mid-request may or may not have been enqueued, and re-sending on a
// live leaf could double-apply it. The feeder never re-sends over ambiguity
// — it marks the leaf down and routes it through recovery, whose
// restart-from-checkpoint discards any uncheckpointed enqueue and whose
// read-back offset says exactly where to resume.
package coord

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"implicate/internal/client"
	"implicate/internal/obs"
	"implicate/internal/proto"
	"implicate/internal/telemetry"
)

// entry is one journaled batch.
type entry struct {
	payload []byte // a complete binary batch (client.EncodeBatch form), the bytes the wire carries
	n       int64  // tuples in the batch
	off     int64  // cumulative tuples routed to this leaf before it
}

type leafState uint8

const (
	leafUp leafState = iota
	leafDown
	leafRecovering
)

func (s leafState) String() string {
	return [...]string{leafUp: "up", leafDown: "down", leafRecovering: "recovering"}[s]
}

func (s leafState) wire() uint8 {
	switch s {
	case leafDown:
		return proto.LeafDown
	case leafRecovering:
		return proto.LeafRecovering
	}
	return proto.LeafUp
}

// leaf is one fleet member's coordinator-side record.
type leaf struct {
	co   *Coordinator
	name string // stable identity the route table hashes
	idx  int

	mu        sync.Mutex
	cond      *sync.Cond // signals the feeder (new work, state change, close) and a blocked append (delivery, fatal, close)
	addr      string     // current dial address; may change across recovery
	cl        *client.Client
	boot      uint64 // admitted server incarnation; every send is fenced to it
	journal   []entry
	tail      []byte // records routed here since the last seal, in order
	tailN     int64  // tuples in tail
	journaled int64  // tuples routed here, tail included
	acked     int64  // tuples the current incarnation acknowledged as enqueued
	nextSend  int    // journal index the feeder delivers next
	state     leafState
	epoch     uint64 // completed recoveries
	downs     int64  // up→down transitions (probe failures, send ambiguity, restarts)
	replayed  int64  // journal entries re-delivered by recoveries
	fatal     error  // sticky: recovery cannot proceed (journal misalignment)
	closed    bool

	// delivery is the coordinator-side delivery latency histogram: one
	// observation per IngestBatch round trip to this leaf, failures
	// included. Atomic and outside mu — the feeder observes it without the
	// lock, telemetry readers snapshot it concurrently.
	delivery telemetry.AtomicHistogram
}

func newLeaf(co *Coordinator, idx int, spec LeafSpec) (*leaf, error) {
	cl, err := client.Dial(spec.Addr, co.cfg.Schema, co.cfg.ClientOptions)
	if err != nil {
		return nil, fmt.Errorf("coord: leaf %s (%s): %w", spec.Name, spec.Addr, err)
	}
	boot, err := cl.Boot()
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("coord: leaf %s (%s): %w", spec.Name, spec.Addr, err)
	}
	lf := &leaf{co: co, name: spec.Name, idx: idx, addr: spec.Addr, cl: cl, boot: boot}
	lf.cond = sync.NewCond(&lf.mu)
	return lf, nil
}

// append adds one batch's share of records for this leaf (record i ends
// at ends[i] in recs) to the journal tail, and wakes the feeder, which
// seals the tail whenever it has nothing else to send. Whenever the tail
// holds FlushTuples tuples, append seals it itself, first waiting until
// fewer than maxPendingBatches entries are pending — the feeder wakes it
// after every delivery — so no entry carries more than FlushTuples. It
// refuses once the coordinator is closed or the leaf is sticky-fatal:
// nothing appended then would ever be delivered.
func (lf *leaf) append(recs []byte, ends []int) error {
	flush := int64(lf.co.cfg.FlushTuples)
	lf.mu.Lock()
	defer lf.mu.Unlock()
	defer lf.cond.Broadcast()
	for start := 0; len(ends) > 0 || lf.tailN >= flush; {
		for !lf.closed && lf.fatal == nil && lf.tailN >= flush && len(lf.journal)-lf.nextSend >= maxPendingBatches {
			lf.cond.Wait()
		}
		if lf.fatal != nil {
			return lf.fatal
		}
		if lf.closed {
			return fmt.Errorf("coord: leaf %s: coordinator closed", lf.name)
		}
		if lf.tailN >= flush {
			lf.sealLocked() // unless the idle feeder sealed it while append waited
			continue
		}
		k := min(int64(len(ends)), flush-lf.tailN)
		lf.tail = append(lf.tail, recs[start:ends[k-1]]...)
		lf.tailN += k
		lf.journaled += k
		start, ends = ends[k-1], ends[k:]
	}
	return nil
}

// sealLocked closes the tail into a journal entry: the header plus the
// tail's records, in an exact-size copy because entries are retained, and
// never modified afterwards, because retransmission reads them uncopied.
// It wakes the feeder and any blocked append. Must hold lf.mu.
func (lf *leaf) sealLocked() {
	payload := make([]byte, len(lf.co.hdr)+len(lf.tail))
	copy(payload[copy(payload, lf.co.hdr):], lf.tail)
	lf.journal = append(lf.journal, entry{payload: payload, n: lf.tailN, off: lf.journaled - lf.tailN})
	lf.tail, lf.tailN = lf.tail[:0], 0
	lf.cond.Broadcast()
}

// markDown flags a live leaf for recovery and wakes the feeder to run it.
func (lf *leaf) markDown() {
	lf.mu.Lock()
	if lf.state == leafUp && !lf.closed {
		lf.state = leafDown
		lf.downs++
		lf.cond.Broadcast()
	}
	lf.mu.Unlock()
}

// run is the feeder goroutine: deliver journal entries in order, one
// in-flight batch at a time, and run recovery whenever the leaf is down.
// With every entry delivered it seals the tail and sends that, so a batch
// grows only while the one before it is in flight. Strictly sequential
// delivery is what makes the leaf's tuple order a pure function of the
// journal — and so of the route function and source order.
func (lf *leaf) run() {
	defer lf.co.wg.Done()
	for {
		lf.mu.Lock()
		for !lf.closed && (lf.fatal != nil || (lf.state == leafUp && lf.deliveredLocked())) {
			lf.cond.Wait()
		}
		if lf.closed {
			lf.mu.Unlock()
			return
		}
		if lf.state != leafUp {
			lf.mu.Unlock()
			lf.recover()
			continue
		}
		if lf.nextSend == len(lf.journal) {
			lf.sealLocked()
		}
		e := lf.journal[lf.nextSend]
		cl, boot := lf.cl, lf.boot
		lf.mu.Unlock()
		// When tracing is armed, the delivery is the root span of a
		// cross-node trace: its ids are drawn BEFORE the send so the frame
		// can carry them, and the leaf's plan/dispatch/apply spans parent
		// under the delivery span's id in the assembled fleet trace. With
		// tracing off the zero context leaves the frame byte-identical to
		// the untraced wire format.
		var link obs.Link
		var tc proto.TraceContext
		if tr := lf.co.tracer; tr != nil {
			link = obs.Link{Trace: tr.NewTraceID(), ID: tr.NewSpanID()}
			tc = proto.TraceContext{Trace: link.Trace, Parent: link.ID}
		}
		// Fenced to the admitted incarnation: if the leaf silently restarted
		// (rolling back to its checkpoint) and the pool transparently
		// redialed it, the send fails BEFORE writing instead of feeding a
		// server whose applied-tuple offset no longer matches nextSend.
		start := time.Now()
		err := cl.IngestFenced(e.payload, e.n, boot, tc)
		lf.delivery.Observe(time.Since(start))
		lf.co.tracer.SpanLinked(link, obs.SpanDeliver, lf.idx, e.n, start)
		if err != nil {
			lf.co.logf("coord: leaf %s: send at offset %d: %v", lf.name, e.off, err)
			lf.markDown()
			continue
		}
		lf.mu.Lock()
		lf.nextSend++
		lf.acked = e.off + e.n
		lf.cond.Broadcast() // room in the pending journal
		lf.mu.Unlock()
	}
}

// probe is the liveness goroutine: a Ping every ProbeEvery, and after
// ProbeFails consecutive failures the leaf is marked down, so an idle
// leaf's crash is noticed without waiting for the next send to fail. A
// successful probe that reaches a DIFFERENT incarnation — the pool redialed
// a restarted leaf — marks the leaf down immediately: the restart is a
// definitive state rollback, not a flaky network, and an idle leaf would
// otherwise never be routed through recovery.
func (lf *leaf) probe() {
	defer lf.co.wg.Done()
	tick := time.NewTicker(lf.co.cfg.ProbeEvery)
	defer tick.Stop()
	fails := 0
	for {
		select {
		case <-lf.co.stop:
			return
		case <-tick.C:
		}
		lf.mu.Lock()
		cl, boot, st := lf.cl, lf.boot, lf.state
		lf.mu.Unlock()
		if st != leafUp {
			fails = 0
			continue
		}
		if err := cl.Ping(lf.co.cfg.ProbeTimeout); err != nil {
			if fails++; fails >= lf.co.cfg.ProbeFails {
				lf.co.logf("coord: leaf %s: %d probes failed: %v", lf.name, fails, err)
				lf.markDown()
				fails = 0
			}
			continue
		}
		fails = 0
		if got, err := cl.Boot(); err == nil && got != boot {
			lf.co.logf("coord: leaf %s: probe reached incarnation %016x, admitted %016x: restarting recovery", lf.name, got, boot)
			lf.markDown()
		}
	}
}

// recover drives the recovery sequence with backoff until the leaf is back
// in the route table (state up, epoch bumped) or the coordinator closes.
// An alignment failure is sticky fatal: retrying cannot fix a leaf whose
// state diverged from the journal.
func (lf *leaf) recover() {
	lf.mu.Lock()
	if lf.closed || lf.fatal != nil {
		lf.mu.Unlock()
		return
	}
	lf.state = leafRecovering
	lf.mu.Unlock()
	backoff := lf.co.cfg.ClientOptions.RetryBase
	for {
		err := lf.tryRecover()
		if err == nil {
			lf.mu.Lock()
			lf.state = leafUp
			lf.epoch++
			lf.cond.Broadcast()
			lf.mu.Unlock()
			lf.co.logf("coord: leaf %s: recovered (epoch %d)", lf.name, lf.epoch)
			return
		}
		if _, sticky := err.(*alignmentError); sticky {
			lf.mu.Lock()
			lf.fatal = err
			lf.cond.Broadcast()
			lf.mu.Unlock()
			lf.co.logf("coord: leaf %s: unrecoverable: %v", lf.name, err)
			return
		}
		lf.co.logf("coord: leaf %s: recovery attempt: %v", lf.name, err)
		select {
		case <-lf.co.stop:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > lf.co.cfg.ClientOptions.RetryCap {
			backoff = lf.co.cfg.ClientOptions.RetryCap
		}
	}
}

// alignmentError is the sticky recovery failure: the leaf's restored offset
// is not a journal boundary.
type alignmentError struct {
	name    string
	tuples  int64
	maxKnow int64
}

func (e *alignmentError) Error() string {
	return fmt.Sprintf("coord: leaf %s restored %d applied tuples, which is not a journal batch boundary (journal covers 0..%d); its state diverged from this coordinator", e.name, e.tuples, e.maxKnow)
}

// tryRecover runs one pass of the recovery sequence: restart (hook),
// redial, read back the restored offset, align the journal, swap the
// client in.
func (lf *leaf) tryRecover() error {
	addr := lf.addr
	if hook := lf.co.cfg.Restart; hook != nil {
		a, err := hook(lf.name)
		if err != nil {
			return fmt.Errorf("restart hook: %w", err)
		}
		if a != "" {
			addr = a
		}
	}
	cl, err := client.Dial(addr, lf.co.cfg.Schema, lf.co.cfg.ClientOptions)
	if err != nil {
		return err
	}
	// The incarnation being admitted: the restored offset read below, and
	// every future send, are only meaningful against THIS server process.
	// Another restart mid-recovery fails the fenced read and retries here.
	boot, err := cl.Boot()
	if err != nil {
		cl.Close()
		return err
	}
	tuples, err := lf.settledTuples(cl, boot)
	if err != nil {
		cl.Close()
		return err
	}
	lf.mu.Lock()
	idx, aligned := lf.boundaryIndex(tuples)
	if !aligned {
		journaled := lf.journaled
		lf.mu.Unlock()
		cl.Close()
		return &alignmentError{name: lf.name, tuples: tuples, maxKnow: journaled}
	}
	old := lf.cl
	if lf.nextSend > idx {
		// Entries between the restored boundary and the old send cursor were
		// delivered to the previous incarnation and will be sent again.
		lf.replayed += int64(lf.nextSend - idx)
	}
	lf.addr, lf.cl, lf.boot, lf.nextSend, lf.acked = addr, cl, boot, idx, tuples
	lf.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return nil
}

// settledTuples reads the leaf's applied-tuple count once it is stable:
// the same value on settleN consecutive polls. A freshly restarted leaf is
// stable immediately (restore runs before it listens); the guard exists for
// the transient-outage case where a batch this feeder sent before the
// outage may still be draining through the leaf's queue.
func (lf *leaf) settledTuples(cl *client.Client, boot uint64) (int64, error) {
	const settleN = 3
	var last int64 = -1
	streak := 0
	for attempt := 0; attempt < 400; attempt++ {
		q, err := cl.QueryFenced(0, boot)
		if err != nil {
			return 0, err
		}
		if q.Tuples == last {
			if streak++; streak >= settleN-1 {
				return q.Tuples, nil
			}
		} else {
			last, streak = q.Tuples, 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	return 0, fmt.Errorf("leaf %s: applied-tuple count did not settle", lf.name)
}

// boundaryIndex locates the journal entry that starts at cumulative offset
// tuples — the resume point after a recovery. Must hold lf.mu.
func (lf *leaf) boundaryIndex(tuples int64) (int, bool) {
	if tuples == lf.journaled-lf.tailN {
		return len(lf.journal), true
	}
	i := sort.Search(len(lf.journal), func(i int) bool { return lf.journal[i].off >= tuples })
	if i < len(lf.journal) && lf.journal[i].off == tuples {
		return i, true
	}
	return 0, false
}

// deliveredLocked reports whether the leaf acknowledged everything routed
// to it: every entry, and an empty tail. Must hold lf.mu.
func (lf *leaf) deliveredLocked() bool { return lf.nextSend == len(lf.journal) && lf.tailN == 0 }

// drain blocks until everything routed to the leaf is acknowledged AND
// applied by it — Flush's quiesce point, after which a query reads
// everything journaled, since ingest acknowledgements only confirm
// enqueueing.
func (lf *leaf) drain(deadline time.Time) error {
	for {
		lf.mu.Lock()
		fatal, sent, state, cl, boot := lf.fatal, lf.deliveredLocked(), lf.state, lf.cl, lf.boot
		lf.mu.Unlock()
		if fatal != nil {
			return fatal
		}
		if state == leafUp && sent {
			// Fenced: a restarted leaf's rolled-back count must not be read
			// as this incarnation's progress. ErrIncarnation lands in the
			// keep-polling path below while the prober routes the leaf
			// through recovery.
			q, err := cl.QueryFenced(0, boot)
			if err == nil {
				// Compare against the journal as it stands NOW — appends may
				// have raced the poll, and the journal only grows.
				lf.mu.Lock()
				journaled, sentNow := lf.journaled, lf.deliveredLocked()
				lf.mu.Unlock()
				if q.Tuples == journaled && sentNow {
					return nil
				}
				if q.Tuples > journaled {
					return fmt.Errorf("coord: leaf %s applied %d tuples but was routed only %d — it is receiving traffic from elsewhere", lf.name, q.Tuples, journaled)
				}
			}
			// Short counts and errors both mean "not yet": keep polling, the
			// feeder and prober handle real failures.
		}
		if time.Now().After(deadline) {
			lf.mu.Lock()
			state, acked, journaled := lf.reportedLocked(), lf.acked, lf.journaled
			lf.mu.Unlock()
			return fmt.Errorf("coord: leaf %s did not drain before the deadline (%s, %d of %d journaled tuples acknowledged)", lf.name, state, acked, journaled)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pull runs one fenced read of statement stmt against the leaf, waiting
// out a recovery in progress until deadline. A refusal from the leaf
// itself is returned at once: retrying cannot change it.
func pull[T any](lf *leaf, stmt int, deadline time.Time, read func(cl *client.Client, stmt int, boot uint64) (T, error)) (T, error) {
	var zero T
	for {
		lf.mu.Lock()
		fatal, state, cl, boot := lf.fatal, lf.state, lf.cl, lf.boot
		lf.mu.Unlock()
		if fatal != nil {
			return zero, fatal
		}
		if state == leafUp {
			res, err := read(cl, stmt, boot)
			if err == nil {
				return res, nil
			}
			if _, remote := err.(*client.RemoteError); remote {
				return zero, err
			}
		}
		if time.Now().After(deadline) {
			return zero, fmt.Errorf("coord: leaf %s: statement %d read did not complete before the deadline", lf.name, stmt)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// reportedLocked is the state the leaf reports: a sticky-fatal leaf is
// down. Must hold lf.mu.
func (lf *leaf) reportedLocked() leafState {
	if lf.fatal != nil {
		return leafDown
	}
	return lf.state
}

// status is this leaf's row of the membership view.
func (lf *leaf) status() proto.LeafStatus {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	return proto.LeafStatus{
		Addr:      lf.addr,
		State:     lf.reportedLocked().wire(),
		Epoch:     lf.epoch,
		Parts:     lf.co.rt.share[lf.idx],
		Journaled: lf.journaled,
		Acked:     lf.acked,
	}
}

// telemetryRow is this leaf's coordinator-side observability row.
func (lf *leaf) telemetryRow() obs.LeafTelemetry {
	lf.mu.Lock()
	row := obs.LeafTelemetry{
		Name:           lf.name,
		State:          lf.reportedLocked().String(),
		Epoch:          lf.epoch,
		Parts:          int(lf.co.rt.share[lf.idx]),
		JournalEntries: int64(len(lf.journal)),
		JournalTuples:  lf.journaled,
		PendingEntries: int64(len(lf.journal) - lf.nextSend),
		PendingTuples:  lf.journaled - lf.acked,
		Replayed:       lf.replayed,
		Downs:          lf.downs,
	}
	lf.mu.Unlock()
	row.Delivery = lf.delivery.Snapshot()
	return row
}

// shut stops the feeder and closes the client.
func (lf *leaf) shut() {
	lf.mu.Lock()
	lf.closed = true
	lf.cond.Broadcast()
	cl := lf.cl
	lf.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
}
