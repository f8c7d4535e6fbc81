package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"

	"implicate/internal/client"
)

// segment is one timed slice of the region: the producers send for the
// slice's length, then the segment ends when every tuple sent is applied.
type segment struct {
	Tuples int64
	Wall   time.Duration
	CPU    time.Duration // process user+sys over the segment
	Traced bool
}

func (s segment) tuplesPerSec() float64  { return float64(s.Tuples) / s.Wall.Seconds() }
func (s segment) cpuNsPerTuple() float64 { return float64(s.CPU.Nanoseconds()) / float64(s.Tuples) }

// region is the measured part of a run.
type region struct {
	Segs    []segment
	QueryMs []float64 // one sample per query round trip, unsorted
	Batches int64
	Queries int64
	Spans   []span // live client-side spans of the traced segments
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss >> 10
}

// liveSampleEvery spaces the batches whose client-side spans a traced
// segment records, so a run keeps tens of thousands of spans, not millions.
func (r *rig) liveSampleEvery() int { return max(1, 8192/r.sp.batch) }

// produce is one producer's share of a segment: a closed loop with a window
// of batches in flight on its own connection, cycling through its own
// batches from where the previous segment stopped. sb is nil when the
// segment is untraced.
func (r *rig) produce(p int, deadline time.Time, sb *spanBuf) (tuples, batches int64, err error) {
	bs := r.in.producers[p]
	cl := r.clients[p]
	checkEvery := max(1, 512/r.sp.batch) // a clock read per ~512 tuples at most
	sampleEvery := r.liveSampleEvery()
	var ring [window]*client.PendingIngest
	var root [window]int // open root span per in-flight batch, -1 if unsampled
	head, inflight := 0, 0
	wait := func() error {
		pi, rs := ring[head], root[head]
		head = (head + 1) % window
		inflight--
		if rs < 0 {
			return pi.Wait()
		}
		w := sb.begin("client.ack_wait", sb.id(rs), sb.spans[rs].Batch)
		err := pi.Wait()
		sb.end(w)
		sb.end(rs)
		return err
	}
	for i := 0; ; i++ {
		if i%checkEvery == 0 && !time.Now().Before(deadline) {
			break
		}
		b := &bs[r.cursor[p]]
		r.cursor[p] = (r.cursor[p] + 1) % len(bs)
		if inflight == window {
			if err = wait(); err != nil {
				break
			}
		}
		slot := (head + inflight) % window
		root[slot] = -1
		var pi *client.PendingIngest
		if sb != nil && i%sampleEvery == 0 {
			rs := sb.begin("client.batch", 0, i)
			s := sb.begin("client.send", sb.id(rs), i)
			pi, err = cl.IngestAsync(b.payload, int64(len(b.tuples)))
			sb.end(s)
			root[slot] = rs
		} else {
			pi, err = cl.IngestAsync(b.payload, int64(len(b.tuples)))
		}
		if err != nil {
			break
		}
		ring[slot] = pi
		inflight++
		tuples += int64(len(b.tuples))
		batches++
	}
	for inflight > 0 {
		if werr := wait(); werr != nil && err == nil {
			err = werr
		}
	}
	return tuples, batches, err
}

// libSegment is lib_sketch's segment: one goroutine, no wire.
func (r *rig) libSegment(deadline time.Time, reg *region, sb *spanBuf) (tuples int64) {
	bs := r.order
	st := r.eng.Statements()[0]
	sampleEvery := r.liveSampleEvery()
	for i := 0; time.Now().Before(deadline); i++ {
		b := &bs[r.cursor[0]]
		r.cursor[0] = (r.cursor[0] + 1) % len(bs)
		if sb != nil && i%sampleEvery == 0 {
			s := sb.begin("query.process_batch", 0, i)
			r.eng.ProcessBatch(b.tuples)
			sb.end(s)
		} else {
			r.eng.ProcessBatch(b.tuples)
		}
		tuples += int64(len(b.tuples))
		reg.Batches++
		if reg.Batches%int64(r.sz.countEvery) == 0 {
			s := -1
			if sb != nil {
				s = sb.begin("client.query", 0, i)
			}
			t0 := time.Now()
			st.Count()
			reg.QueryMs = append(reg.QueryMs, float64(time.Since(t0).Nanoseconds())/1e6)
			reg.Queries++
			if s >= 0 {
				sb.end(s)
			}
		}
	}
	return tuples
}

// runSegment runs one segment of length d and waits for the drain.
func (r *rig) runSegment(d time.Duration, reg *region, tr *trace) (segment, error) {
	seg := segment{Traced: tr != nil}
	cpu0, start := cpuTime(), time.Now()
	deadline := start.Add(d)
	if r.sp.kind == kindLib {
		var sb *spanBuf
		if tr != nil {
			sb = tr.buf()
		}
		seg.Tuples = r.libSegment(deadline, reg, sb)
		if sb != nil {
			reg.Spans = append(reg.Spans, sb.spans...)
		}
	} else {
		n := len(r.clients)
		tuples, batches := make([]int64, n), make([]int64, n)
		errs := make([]error, n)
		bufs := make([]*spanBuf, n)
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			if tr != nil {
				bufs[p] = tr.buf()
			}
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				tuples[p], batches[p], errs[p] = r.produce(p, deadline, bufs[p])
			}(p)
		}
		wg.Wait()
		for p := 0; p < n; p++ {
			seg.Tuples += tuples[p]
			reg.Batches += batches[p]
			if bufs[p] != nil {
				reg.Spans = append(reg.Spans, bufs[p].spans...)
			}
			if errs[p] != nil {
				return seg, fmt.Errorf("producer %d: %w", p, errs[p])
			}
		}
	}
	r.sent += seg.Tuples
	if err := r.drain(); err != nil {
		return seg, err
	}
	seg.Wall, seg.CPU = time.Since(start), cpuTime()-cpu0
	return seg, nil
}

// queryLog is what the querier hands back when it stops.
type queryLog struct {
	ms    []float64 // one sample per round trip
	spans []span
	err   error
}

// querier issues a query, waits sz.queryEvery, and repeats, on producer 0's
// connection (request-id pipelining multiplexes it with that producer's
// ingest, so the connection count stays at P) until stop closes or a query
// fails. sb is nil when the run is untraced.
func (r *rig) querier(stop <-chan struct{}, sb *spanBuf, done chan<- queryLog) {
	var log queryLog
	defer func() {
		if sb != nil {
			log.spans = sb.spans
		}
		done <- log
	}()
	tick := time.NewTimer(0)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		s := -1
		if sb != nil {
			s = sb.begin("client.query", 0, i)
		}
		t0 := time.Now()
		_, err := r.clients[0].Query(0)
		log.ms = append(log.ms, float64(time.Since(t0).Nanoseconds())/1e6)
		if s >= 0 {
			sb.end(s)
		}
		if err != nil {
			log.err = fmt.Errorf("query: %w", err)
			return
		}
		tick.Reset(r.sz.queryEvery)
	}
}

// runRegion runs n segments of total length d. traced(i) says whether
// segment i records client-side spans; tr and traced are nil for the
// untraced run.
func (r *rig) runRegion(d time.Duration, n int, tr *trace, traced func(i int) bool) (*region, error) {
	reg := &region{}
	stop, done := make(chan struct{}), make(chan queryLog, 1)
	if r.sp.kind != kindLib {
		var sb *spanBuf
		if tr != nil {
			sb = tr.buf()
		}
		go r.querier(stop, sb, done)
	}
	var err error
	for i := 0; i < n && err == nil; i++ {
		var segTrace *trace
		if tr != nil && traced(i) {
			segTrace = tr
		}
		var seg segment
		seg, err = r.runSegment(d/time.Duration(n), reg, segTrace)
		reg.Segs = append(reg.Segs, seg)
	}
	if r.sp.kind != kindLib {
		close(stop)
		log := <-done
		if err == nil {
			err = log.err
		}
		reg.QueryMs = log.ms
		reg.Queries = int64(len(log.ms))
		reg.Spans = append(reg.Spans, log.spans...)
	}
	r.ops += reg.Batches + reg.Queries
	return reg, err
}

// warmup is the untimed stretch before the region: caches fill, pools and
// socket buffers reach their steady size.
func (r *rig) warmup(d time.Duration) error {
	reg := &region{}
	_, err := r.runSegment(d, reg, nil)
	r.ops += reg.Batches + reg.Queries
	return err
}
