// Package telemetry is the runtime observability layer of the serving
// subsystem: a fixed set of atomically maintained counters (tuples
// ingested, batches accepted and rejected, merges, ingest-queue high-water
// mark) plus per-RPC latency histograms with power-of-two nanosecond
// buckets. A Set is updated lock-free on the hot path; Snapshot captures a
// consistent-enough copy for the Stats RPC, which ships it in the
// internal/wire encoding.
//
// The snapshot has one wire format, magic "IMPT\x08", because a coordinator
// and its leaves are deployed from one build. A peer whose Stats reply does
// not decode — another build's format, another RPC list — is treated like
// an unreachable one (the coordinator's fleet roll-up skips it) rather than
// half-read.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"implicate/internal/wire"
)

// RPC indexes the latency histograms, one per request type.
type RPC uint8

// The instrumented RPCs, in wire-format order: snapshot decoding matches
// histograms to RPCs by position.
const (
	RPCIngest RPC = iota
	RPCQuery
	RPCMerge
	RPCStats
	RPCHealth
	RPCTrace
	RPCSnapshot
	RPCBoot
	NumRPCs
)

// String names the RPC for reports.
func (r RPC) String() string {
	switch r {
	case RPCIngest:
		return "IngestBatch"
	case RPCQuery:
		return "Query"
	case RPCMerge:
		return "SnapshotMerge"
	case RPCStats:
		return "Stats"
	case RPCHealth:
		return "Health"
	case RPCTrace:
		return "Trace"
	case RPCSnapshot:
		return "Snapshot"
	case RPCBoot:
		return "Boot"
	}
	return fmt.Sprintf("RPC(%d)", uint8(r))
}

// HistBuckets is the bucket count of each latency histogram: bucket i
// collects observations with ceil(log2(ns)) == i, so bucket 10 is ~1µs,
// 20 is ~1ms, 30 is ~1s; 49 tops out above any plausible RPC latency.
const HistBuckets = 50

// Set is the live counter set a server updates. All methods are safe for
// concurrent use; the zero value is ready. Per-worker counters exist only
// after ConfigureWorkers, which must run before the workers start.
type Set struct {
	tuplesIngested  atomic.Int64
	batches         atomic.Int64
	batchesRejected atomic.Int64
	merges          atomic.Int64
	queueHighWater  atomic.Int64
	poolSaturation  atomic.Int64
	// workers is published atomically so a Snapshot or a straggling worker
	// update racing a ConfigureWorkers reads a coherent (old or new) block,
	// never a torn slice header.
	workers atomic.Pointer[[]workerSet]
	hist    [NumRPCs][HistBuckets]atomic.Uint64
}

// workerSet holds one pipeline worker's counters, padded to a cache line so
// workers hammering adjacent slots do not false-share.
type workerSet struct {
	tasks atomic.Int64
	units atomic.Int64
	_     [48]byte
}

// ConfigureWorkers sizes the per-worker counter block for an n-worker
// pipeline, discarding any previously accumulated worker counters. Safe to
// call concurrently with updates and snapshots: the block swaps atomically,
// and an update racing the swap lands in whichever block it loaded.
func (s *Set) ConfigureWorkers(n int) {
	if n < 0 {
		n = 0
	}
	w := make([]workerSet, n)
	s.workers.Store(&w)
}

// AddWorkerTask records one pipeline task applied by the given worker
// carrying the given number of work units (tuples or planned pairs).
// Samples for workers outside the configured range are dropped.
func (s *Set) AddWorkerTask(worker, units int) {
	wp := s.workers.Load()
	if wp == nil || worker < 0 || worker >= len(*wp) {
		return
	}
	(*wp)[worker].tasks.Add(1)
	(*wp)[worker].units.Add(int64(units))
}

// AddPoolSaturation records one dispatch that found a worker queue full
// and had to block — the pool-saturation gauge's input.
func (s *Set) AddPoolSaturation() { s.poolSaturation.Add(1) }

// AddTuples records n tuples applied to the engine.
func (s *Set) AddTuples(n int64) { s.tuplesIngested.Add(n) }

// AddBatch records one batch accepted into the ingest queue.
func (s *Set) AddBatch() { s.batches.Add(1) }

// AddRejectedBatch records one batch refused with a backpressure reply.
func (s *Set) AddRejectedBatch() { s.batchesRejected.Add(1) }

// AddMerge records one sketch merged in.
func (s *Set) AddMerge() { s.merges.Add(1) }

// ObserveQueueDepth folds one ingest-queue depth sample into the high-water
// mark.
func (s *Set) ObserveQueueDepth(depth int) {
	d := int64(depth)
	for {
		cur := s.queueHighWater.Load()
		if d <= cur || s.queueHighWater.CompareAndSwap(cur, d) {
			return
		}
	}
}

// bucketFor maps a duration to its histogram bucket.
func bucketFor(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	b := bits.Len64(uint64(ns) - 1) // ceil(log2)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one RPC's handling latency.
func (s *Set) Observe(rpc RPC, d time.Duration) {
	if rpc >= NumRPCs {
		return
	}
	s.hist[rpc][bucketFor(d)].Add(1)
}

// Snapshot copies the counters out. Individual counters are each read
// atomically; the set as a whole is a point-in-time approximation, which is
// all a metrics endpoint needs.
func (s *Set) Snapshot() Snapshot {
	var sn Snapshot
	sn.TuplesIngested = s.tuplesIngested.Load()
	sn.Batches = s.batches.Load()
	sn.BatchesRejected = s.batchesRejected.Load()
	sn.Merges = s.merges.Load()
	sn.QueueHighWater = s.queueHighWater.Load()
	sn.PoolSaturation = s.poolSaturation.Load()
	if wp := s.workers.Load(); wp != nil && len(*wp) > 0 {
		w := *wp
		sn.Workers = make([]WorkerStats, len(w))
		for i := range w {
			sn.Workers[i] = WorkerStats{
				Tasks: w[i].tasks.Load(),
				Units: w[i].units.Load(),
			}
		}
	}
	for r := RPC(0); r < NumRPCs; r++ {
		for b := 0; b < HistBuckets; b++ {
			sn.Latency[r].Counts[b] = s.hist[r][b].Load()
		}
	}
	return sn
}

// Histogram is the frozen form of one RPC's latency distribution.
type Histogram struct {
	Counts [HistBuckets]uint64
}

// Count returns the total number of observations.
func (h Histogram) Count() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Quantile returns an upper bound of the q-quantile latency: buckets hold
// log2 of the duration (bucket b collects observations with
// ceil(log2(ns)) == b), so the answer is the top of the bucket containing
// the quantile, 2^b nanoseconds — never an interpolated value. An empty
// histogram returns 0. q is clamped to [0, 1]: q=0 is the smallest
// observed bucket's bound, q=1 the largest, and with every observation in
// one bucket every quantile is that bucket's bound. A NaN q returns 0
// rather than relying on the platform-defined float→uint conversion.
func (h Histogram) Quantile(q float64) time.Duration {
	total := h.Count()
	if total == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for b, c := range h.Counts {
		seen += c
		if seen > rank {
			return time.Duration(uint64(1) << uint(b))
		}
	}
	return time.Duration(uint64(1) << (HistBuckets - 1))
}

// AtomicHistogram is a live, lock-free latency histogram with the same
// power-of-two nanosecond geometry as the per-RPC histograms, for latencies
// the fixed RPC set does not cover (the coordinator's per-leaf delivery
// latency). It never travels on the wire; Snapshot freezes it into a
// Histogram for local rendering. The zero value is ready.
type AtomicHistogram struct {
	counts [HistBuckets]atomic.Uint64
}

// Observe records one latency sample.
func (h *AtomicHistogram) Observe(d time.Duration) {
	h.counts[bucketFor(d)].Add(1)
}

// Snapshot copies the live counts into a frozen Histogram.
func (h *AtomicHistogram) Snapshot() Histogram {
	var out Histogram
	for b := range h.counts {
		out.Counts[b] = h.counts[b].Load()
	}
	return out
}

// Snapshot is a frozen counter set — what the Stats RPC ships.
type Snapshot struct {
	// TuplesIngested counts tuples applied to the engine (not merely
	// acknowledged; acked batches still queued are not yet included).
	TuplesIngested int64
	// Batches counts batches accepted into the ingest queue.
	Batches int64
	// BatchesRejected counts batches refused with a backpressure reply.
	// Every rejection was reported to its client explicitly.
	BatchesRejected int64
	// Merges counts sketches merged in via SnapshotMerge.
	Merges int64
	// QueueHighWater is the deepest the ingest queue has been.
	QueueHighWater int64
	// PoolSaturation counts dispatches that found a pipeline worker queue
	// full and blocked — sustained growth means the pool, not the ingest
	// queue, is the bottleneck.
	PoolSaturation int64
	// Workers holds per-pipeline-worker counters, one entry per worker; nil
	// when the server configured no pool.
	Workers []WorkerStats
	// Latency holds one histogram per RPC, indexed by the RPC constants.
	Latency [NumRPCs]Histogram
}

// WorkerStats is one pipeline worker's frozen counters.
type WorkerStats struct {
	// Tasks counts pipeline tasks the worker applied.
	Tasks int64
	// Units counts the planned pairs those tasks carried.
	Units int64
}

// snapshotMagic heads every encoded snapshot; see the package doc for why
// there is exactly one.
const snapshotMagic = "IMPT\x08"

// Encode serializes the snapshot for the Stats RPC. Every block is written,
// empty or not, so the encoding is canonical: a decoded snapshot re-encodes
// to the bytes it came from.
func (sn Snapshot) Encode() []byte {
	e := wire.NewEncoder(256 + int(NumRPCs)*HistBuckets*8)
	e.Raw([]byte(snapshotMagic))
	e.I64(sn.TuplesIngested)
	e.I64(sn.Batches)
	e.I64(sn.BatchesRejected)
	e.I64(sn.Merges)
	e.I64(sn.QueueHighWater)
	e.I64(sn.PoolSaturation)
	e.U32(uint32(len(sn.Workers)))
	for _, w := range sn.Workers {
		e.I64(w.Tasks)
		e.I64(w.Units)
	}
	e.U32(uint32(NumRPCs))
	e.U32(HistBuckets)
	for r := RPC(0); r < NumRPCs; r++ {
		for b := 0; b < HistBuckets; b++ {
			e.U64(sn.Latency[r].Counts[b])
		}
	}
	return e.Bytes()
}

// DecodeSnapshot parses an encoded snapshot, rejecting any it cannot prove
// intact — including one from another build: the magic, the RPC count and
// the bucket geometry must all match this build's exactly (histograms are
// matched to RPCs and buckets by position).
func DecodeSnapshot(data []byte) (Snapshot, error) {
	d := wire.NewDecoder(data)
	d.Magic(snapshotMagic)
	var sn Snapshot
	sn.TuplesIngested = d.I64()
	sn.Batches = d.I64()
	sn.BatchesRejected = d.I64()
	sn.Merges = d.I64()
	sn.QueueHighWater = d.I64()
	sn.PoolSaturation = d.I64()
	// The worker count is the sender's pool size — data, not geometry: any
	// count round-trips.
	nworkers := d.Count(16)
	if d.Err() == nil && nworkers > 0 {
		sn.Workers = make([]WorkerStats, nworkers)
		for i := 0; i < nworkers; i++ {
			sn.Workers[i] = WorkerStats{Tasks: d.I64(), Units: d.I64()}
		}
	}
	nrpc := d.U32()
	nbuckets := d.U32()
	if d.Err() == nil && (nrpc != uint32(NumRPCs) || nbuckets != HistBuckets) {
		return Snapshot{}, fmt.Errorf("%w: histogram geometry %d×%d (want %d×%d)",
			wire.ErrCorrupt, nrpc, nbuckets, NumRPCs, HistBuckets)
	}
	for r := 0; d.Err() == nil && r < int(NumRPCs); r++ {
		for b := 0; b < HistBuckets; b++ {
			sn.Latency[r].Counts[b] = d.U64()
		}
	}
	if err := d.Done(); err != nil {
		return Snapshot{}, fmt.Errorf("telemetry: %w", err)
	}
	if sn.TuplesIngested < 0 || sn.Batches < 0 || sn.BatchesRejected < 0 || sn.Merges < 0 || sn.QueueHighWater < 0 || sn.PoolSaturation < 0 {
		return Snapshot{}, fmt.Errorf("%w: negative counter", wire.ErrCorrupt)
	}
	for _, w := range sn.Workers {
		if w.Tasks < 0 || w.Units < 0 {
			return Snapshot{}, fmt.Errorf("%w: negative worker counter", wire.ErrCorrupt)
		}
	}
	return sn, nil
}
