// Package telemetry is the runtime observability layer of the serving
// subsystem: a fixed set of atomically maintained counters (tuples
// ingested, batches accepted and rejected, merges, ingest-queue high-water
// mark) plus per-RPC latency histograms with power-of-two nanosecond
// buckets. A Set is updated lock-free on the hot path; Snapshot captures a
// consistent-enough copy for the Stats RPC, which ships it in the
// internal/wire encoding.
//
// The snapshot has one wire format, magic "IMPT\x05", because a coordinator
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
	RPCUDPAck
	RPCSnapshot
	RPCBoot
	RPCAuth
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
	case RPCUDPAck:
		return "UDPAck"
	case RPCSnapshot:
		return "Snapshot"
	case RPCBoot:
		return "Boot"
	case RPCAuth:
		return "Auth"
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
	udpDatagrams    atomic.Int64
	udpDups         atomic.Int64
	udpDrops        atomic.Int64
	// The fine-grained UDP lane attribution: udpDrops stays the aggregate
	// (its wire position and meaning are fixed), these say why. Window,
	// decode and CRC drops partition the aggregate's causes; applied and
	// reorders are independent lane events.
	udpApplied     atomic.Int64
	udpWindowDrops atomic.Int64
	udpDecodeDrops atomic.Int64
	udpReorders    atomic.Int64
	udpCRCFailures atomic.Int64
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

// AddUDPDatagram records one valid UDP ingest datagram received.
func (s *Set) AddUDPDatagram() { s.udpDatagrams.Add(1) }

// AddUDPDup records one UDP datagram dropped as a duplicate.
func (s *Set) AddUDPDup() { s.udpDups.Add(1) }

// AddUDPDrop records one UDP datagram dropped for any non-duplicate
// reason: malformed, beyond the reorder window, or refused while draining.
func (s *Set) AddUDPDrop() { s.udpDrops.Add(1) }

// AddUDPApplied records one UDP ingest batch applied to the engine.
func (s *Set) AddUDPApplied() { s.udpApplied.Add(1) }

// AddUDPWindowDrop records one datagram dropped because its sequence
// number lies beyond the per-source reorder window.
func (s *Set) AddUDPWindowDrop() { s.udpWindowDrops.Add(1) }

// AddUDPDecodeDrop records one in-window datagram whose batch payload
// failed to decode (the sequence still advances — see the lane's apply).
func (s *Set) AddUDPDecodeDrop() { s.udpDecodeDrops.Add(1) }

// AddUDPReorder records one out-of-order datagram parked in the reorder
// window to await its predecessors.
func (s *Set) AddUDPReorder() { s.udpReorders.Add(1) }

// AddUDPCRCFailure records one datagram rejected before sequencing:
// truncated, version-skewed, or failing its checksum.
func (s *Set) AddUDPCRCFailure() { s.udpCRCFailures.Add(1) }

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
	sn.UDPDatagrams = s.udpDatagrams.Load()
	sn.UDPDups = s.udpDups.Load()
	sn.UDPDrops = s.udpDrops.Load()
	sn.UDPApplied = s.udpApplied.Load()
	sn.UDPWindowDrops = s.udpWindowDrops.Load()
	sn.UDPDecodeDrops = s.udpDecodeDrops.Load()
	sn.UDPReorders = s.udpReorders.Load()
	sn.UDPCRCFailures = s.udpCRCFailures.Load()
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
	// UDPDatagrams counts valid UDP ingest datagrams received (whether
	// applied, buffered or dropped as duplicates).
	UDPDatagrams int64
	// UDPDups counts UDP datagrams dropped as duplicates — already applied
	// or already buffered in the reorder window.
	UDPDups int64
	// UDPDrops counts UDP datagrams dropped for any other reason:
	// malformed, beyond the reorder window, or refused while draining.
	UDPDrops int64
	// UDPApplied counts UDP ingest batches applied to the engine.
	UDPApplied int64
	// UDPWindowDrops counts datagrams dropped beyond the reorder window.
	UDPWindowDrops int64
	// UDPDecodeDrops counts in-window datagrams whose payload failed to
	// decode as a batch.
	UDPDecodeDrops int64
	// UDPReorders counts out-of-order datagrams parked in the reorder
	// window.
	UDPReorders int64
	// UDPCRCFailures counts datagrams rejected before sequencing —
	// truncated, version-skewed or failing their checksum.
	UDPCRCFailures int64
	// Workers holds per-pipeline-worker counters, one entry per worker; nil
	// when the server configured no pool.
	Workers []WorkerStats
	// Latency holds one histogram per RPC, indexed by the RPC constants.
	Latency [NumRPCs]Histogram
	// Tenants holds per-tenant counters, one entry per registered tenant,
	// sorted by name. Nil on single-tenant servers.
	Tenants []TenantStats
	// Shards holds per-dispatch-shard counters for servers running the
	// sharded Fair dispatcher, ordered (lane, shard). Nil on the
	// single-dispatcher path.
	Shards []ShardStats
}

// ShardStats is one (lane, dispatch shard) pair's frozen counters.
type ShardStats struct {
	// Lane is the name of the tenant lane the shard dispatches for.
	Lane string
	// Shard is the dispatch shard index within the lane.
	Shard int64
	// Tasks counts worker tasks the shard enqueued.
	Tasks int64
	// HighWater is the shard's deepest unconsumed backlog in batches.
	HighWater int64
}

// TenantStats is one tenant's frozen counters.
type TenantStats struct {
	// Name is the tenant's namespace.
	Name string
	// Weight is the tenant's fair-share dispatch weight.
	Weight int64
	// Tuples counts tuples applied to the tenant's engine.
	Tuples int64
	// Batches counts batches accepted into the tenant's lane.
	Batches int64
	// Rejected counts batches refused with a backpressure (Busy) reply.
	Rejected int64
	// QuotaRefusals counts batches refused with a Quota reply — over the
	// ingest rate or memory budget, never enqueued.
	QuotaRefusals int64
	// MemBytes is the tenant's last-assessed estimator memory footprint.
	MemBytes int64
	// MemBudget is the tenant's configured memory ceiling; 0 is unlimited.
	MemBudget int64
	// QueueHighWater is the deepest the tenant's lane has been.
	QueueHighWater int64
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
const snapshotMagic = "IMPT\x05"

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
	e.I64(sn.UDPDatagrams)
	e.I64(sn.UDPDups)
	e.I64(sn.UDPDrops)
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
	e.U32(uint32(len(sn.Tenants)))
	for _, t := range sn.Tenants {
		e.Str(t.Name)
		e.I64(t.Weight)
		e.I64(t.Tuples)
		e.I64(t.Batches)
		e.I64(t.Rejected)
		e.I64(t.QuotaRefusals)
		e.I64(t.MemBytes)
		e.I64(t.MemBudget)
		e.I64(t.QueueHighWater)
	}
	e.I64(sn.UDPApplied)
	e.I64(sn.UDPWindowDrops)
	e.I64(sn.UDPDecodeDrops)
	e.I64(sn.UDPReorders)
	e.I64(sn.UDPCRCFailures)
	e.U32(uint32(len(sn.Shards)))
	for _, sh := range sn.Shards {
		e.Str(sh.Lane)
		e.I64(sh.Shard)
		e.I64(sh.Tasks)
		e.I64(sh.HighWater)
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
	sn.UDPDatagrams = d.I64()
	sn.UDPDups = d.I64()
	sn.UDPDrops = d.I64()
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
	// 68 is the smallest possible tenant row: empty-name length prefix plus
	// eight i64 counters.
	ntenants := d.Count(68)
	if d.Err() == nil && ntenants > 0 {
		sn.Tenants = make([]TenantStats, ntenants)
		for i := 0; i < ntenants && d.Err() == nil; i++ {
			sn.Tenants[i] = TenantStats{
				Name:           d.Str(256),
				Weight:         d.I64(),
				Tuples:         d.I64(),
				Batches:        d.I64(),
				Rejected:       d.I64(),
				QuotaRefusals:  d.I64(),
				MemBytes:       d.I64(),
				MemBudget:      d.I64(),
				QueueHighWater: d.I64(),
			}
		}
	}
	sn.UDPApplied = d.I64()
	sn.UDPWindowDrops = d.I64()
	sn.UDPDecodeDrops = d.I64()
	sn.UDPReorders = d.I64()
	sn.UDPCRCFailures = d.I64()
	// 28 is the smallest possible shard row: empty-lane length prefix plus
	// three i64 counters.
	nshards := d.Count(28)
	if d.Err() == nil && nshards > 0 {
		sn.Shards = make([]ShardStats, nshards)
		for i := 0; i < nshards && d.Err() == nil; i++ {
			sn.Shards[i] = ShardStats{
				Lane:      d.Str(256),
				Shard:     d.I64(),
				Tasks:     d.I64(),
				HighWater: d.I64(),
			}
		}
	}
	if err := d.Done(); err != nil {
		return Snapshot{}, fmt.Errorf("telemetry: %w", err)
	}
	if sn.TuplesIngested < 0 || sn.Batches < 0 || sn.BatchesRejected < 0 || sn.Merges < 0 || sn.QueueHighWater < 0 || sn.PoolSaturation < 0 || sn.UDPDatagrams < 0 || sn.UDPDups < 0 || sn.UDPDrops < 0 {
		return Snapshot{}, fmt.Errorf("%w: negative counter", wire.ErrCorrupt)
	}
	if sn.UDPApplied < 0 || sn.UDPWindowDrops < 0 || sn.UDPDecodeDrops < 0 || sn.UDPReorders < 0 || sn.UDPCRCFailures < 0 {
		return Snapshot{}, fmt.Errorf("%w: negative counter", wire.ErrCorrupt)
	}
	for _, sh := range sn.Shards {
		if sh.Shard < 0 || sh.Tasks < 0 || sh.HighWater < 0 {
			return Snapshot{}, fmt.Errorf("%w: negative shard counter", wire.ErrCorrupt)
		}
	}
	for _, w := range sn.Workers {
		if w.Tasks < 0 || w.Units < 0 {
			return Snapshot{}, fmt.Errorf("%w: negative worker counter", wire.ErrCorrupt)
		}
	}
	for _, t := range sn.Tenants {
		if t.Weight < 0 || t.Tuples < 0 || t.Batches < 0 || t.Rejected < 0 ||
			t.QuotaRefusals < 0 || t.MemBytes < 0 || t.MemBudget < 0 || t.QueueHighWater < 0 {
			return Snapshot{}, fmt.Errorf("%w: negative tenant counter", wire.ErrCorrupt)
		}
	}
	return sn, nil
}
