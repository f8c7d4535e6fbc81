package telemetry

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounters(t *testing.T) {
	var s Set
	s.AddTuples(100)
	s.AddTuples(28)
	s.AddBatch()
	s.AddBatch()
	s.AddRejectedBatch()
	s.AddMerge()
	sn := s.Snapshot()
	if sn.TuplesIngested != 128 || sn.Batches != 2 || sn.BatchesRejected != 1 || sn.Merges != 1 {
		t.Fatalf("snapshot %+v", sn)
	}
}

func TestQueueHighWaterIsMonotonic(t *testing.T) {
	var s Set
	for _, d := range []int{3, 7, 2, 7, 5} {
		s.ObserveQueueDepth(d)
	}
	if hw := s.Snapshot().QueueHighWater; hw != 7 {
		t.Fatalf("high water %d, want 7", hw)
	}
	// Concurrent observers must converge on the true maximum.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for d := 0; d <= 100+g; d++ {
				s.ObserveQueueDepth(d)
			}
		}(g)
	}
	wg.Wait()
	if hw := s.Snapshot().QueueHighWater; hw != 107 {
		t.Fatalf("concurrent high water %d, want 107", hw)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var s Set
	s.Observe(RPCIngest, 0)                // clamps to bucket 0
	s.Observe(RPCIngest, 1)                // 1ns -> bucket 0
	s.Observe(RPCIngest, 1024)             // exactly 2^10 -> bucket 10
	s.Observe(RPCIngest, 1025)             // -> bucket 11
	s.Observe(RPCIngest, time.Hour*100000) // clamps to the last bucket
	s.Observe(NumRPCs, time.Second)        // out of range: dropped, not a panic
	h := s.Snapshot().Latency[RPCIngest]
	if h.Count() != 5 {
		t.Fatalf("count %d, want 5", h.Count())
	}
	for b, want := range map[int]uint64{0: 2, 10: 1, 11: 1, HistBuckets - 1: 1} {
		if h.Counts[b] != want {
			t.Errorf("bucket %d = %d, want %d", b, h.Counts[b], want)
		}
	}
	if other := s.Snapshot().Latency[RPCQuery]; other.Count() != 0 {
		t.Error("observation leaked into another RPC's histogram")
	}
}

func TestQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
	h.Counts[10] = 90 // ~1µs
	h.Counts[20] = 10 // ~1ms
	if q := h.Quantile(0.5); q != 1<<10 {
		t.Errorf("p50 = %v, want %v", q, time.Duration(1<<10))
	}
	if q := h.Quantile(0.99); q != 1<<20 {
		t.Errorf("p99 = %v, want %v", q, time.Duration(1<<20))
	}
	if q := h.Quantile(-1); q != 1<<10 {
		t.Errorf("clamped q<0 = %v", q)
	}
	if q := h.Quantile(2); q != 1<<20 {
		t.Errorf("clamped q>1 = %v", q)
	}
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	var s Set
	s.AddTuples(1 << 40)
	s.AddBatch()
	s.AddRejectedBatch()
	s.AddMerge()
	s.ObserveQueueDepth(17)
	s.Observe(RPCQuery, 3*time.Microsecond)
	s.Observe(RPCMerge, 2*time.Millisecond)
	s.ConfigureWorkers(4)
	s.AddWorkerTask(0, 128)
	s.AddWorkerTask(3, 7)
	s.AddWorkerTask(3, 5)
	s.AddPoolSaturation()
	want := s.Snapshot()

	got, err := DecodeSnapshot(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got.PoolSaturation != 1 {
		t.Fatalf("pool saturation %d, want 1", got.PoolSaturation)
	}
	if len(got.Workers) != 4 || got.Workers[0] != (WorkerStats{Tasks: 1, Units: 128}) || got.Workers[3] != (WorkerStats{Tasks: 2, Units: 12}) {
		t.Fatalf("worker stats %+v", got.Workers)
	}
}

// TestSnapshotRoundTripNoWorkers pins the wire form for servers that never
// configured a pool (Workers nil).
func TestSnapshotRoundTripNoWorkers(t *testing.T) {
	var s Set
	s.AddTuples(5)
	want := s.Snapshot()
	got, err := DecodeSnapshot(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got.Workers != nil {
		t.Fatalf("workers %+v, want nil", got.Workers)
	}
}

// TestSnapshotTenantRoundTrip: a snapshot carrying tenants round-trips them.
func TestSnapshotTenantRoundTrip(t *testing.T) {
	var s Set
	s.AddTuples(9)
	want := s.Snapshot()
	want.Tenants = []TenantStats{
		{Name: "acme", Weight: 3, Tuples: 100, Batches: 4, Rejected: 1, QuotaRefusals: 2, MemBytes: 1 << 20, MemBudget: 1 << 22, QueueHighWater: 7},
		{Name: "zeta", Weight: 1, Tuples: 5},
	}
	got, err := DecodeSnapshot(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// Negative tenant counter is corruption.
	bad := want
	bad.Tenants = []TenantStats{{Name: "x", Tuples: -1}}
	if _, err := DecodeSnapshot(bad.Encode()); err == nil || !strings.Contains(err.Error(), "negative tenant") {
		t.Errorf("negative tenant counter accepted: %v", err)
	}
}

func TestDecodeSnapshotRejectsCorruption(t *testing.T) {
	good := (&Set{}).Snapshot().Encode()

	if _, err := DecodeSnapshot(good[:len(good)-1]); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Error("wrong magic accepted")
	}
	// Negative counter: flip the sign byte of TuplesIngested.
	neg := append([]byte(nil), good...)
	neg[len(snapshotMagic)+7] = 0x80
	if _, err := DecodeSnapshot(neg); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative counter accepted: %v", err)
	}
}

// TestHistogramConcurrentWriters hammers one Set from concurrent writers —
// the pool-worker pattern — and asserts no observation is lost (run with
// -race). Each goroutine plays one pipeline worker observing its own
// latencies plus shared counters.
func TestHistogramConcurrentWriters(t *testing.T) {
	const (
		writers = 8
		perGor  = 10000
	)
	var s Set
	s.ConfigureWorkers(writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rpc := RPC(g % int(NumRPCs))
			for i := 0; i < perGor; i++ {
				// Spread observations across buckets deterministically.
				s.Observe(rpc, time.Duration(1)<<uint(i%20))
				s.AddWorkerTask(g, 1)
				if i%100 == 0 {
					s.AddPoolSaturation()
				}
			}
		}(g)
	}
	wg.Wait()

	sn := s.Snapshot()
	var total uint64
	for r := RPC(0); r < NumRPCs; r++ {
		total += sn.Latency[r].Count()
	}
	if want := uint64(writers * perGor); total != want {
		t.Fatalf("histograms hold %d observations, want %d — concurrent writers lost samples", total, want)
	}
	for w, ws := range sn.Workers {
		if ws.Tasks != perGor || ws.Units != perGor {
			t.Fatalf("worker %d counters %+v, want %d tasks/units", w, ws, perGor)
		}
	}
	if want := int64(writers * (perGor / 100)); sn.PoolSaturation != want {
		t.Fatalf("pool saturation %d, want %d", sn.PoolSaturation, want)
	}
}

// TestWorkerCounterBounds checks out-of-range worker samples are dropped,
// not a panic — including on an unconfigured set.
func TestWorkerCounterBounds(t *testing.T) {
	var s Set
	s.AddWorkerTask(0, 5) // unconfigured: dropped
	s.ConfigureWorkers(2)
	s.AddWorkerTask(-1, 5)
	s.AddWorkerTask(2, 5)
	s.AddWorkerTask(1, 5)
	sn := s.Snapshot()
	if len(sn.Workers) != 2 || sn.Workers[0].Tasks != 0 || sn.Workers[1] != (WorkerStats{Tasks: 1, Units: 5}) {
		t.Fatalf("worker stats %+v", sn.Workers)
	}
}

func TestRPCStrings(t *testing.T) {
	for r, want := range map[RPC]string{
		RPCIngest: "IngestBatch", RPCQuery: "Query", RPCMerge: "SnapshotMerge",
		RPCStats: "Stats", RPC(200): "RPC(200)",
	} {
		if got := r.String(); got != want {
			t.Errorf("RPC %d: %q, want %q", r, got, want)
		}
	}
}

// TestSnapshotV5RoundTrip: fine-grained UDP counters and per-shard rows
// round-trip, alone and beside tenants.
func TestSnapshotV5RoundTrip(t *testing.T) {
	var s Set
	s.AddTuples(11)
	s.AddUDPApplied()
	s.AddUDPWindowDrop()
	s.AddUDPDecodeDrop()
	s.AddUDPReorder()
	s.AddUDPReorder()
	s.AddUDPCRCFailure()
	want := s.Snapshot()
	want.Shards = []ShardStats{
		{Lane: "", Shard: 0, Tasks: 40, HighWater: 3},
		{Lane: "acme", Shard: 1, Tasks: 7, HighWater: 2},
	}
	got, err := DecodeSnapshot(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got.UDPReorders != 2 || got.UDPApplied != 1 || got.UDPCRCFailures != 1 {
		t.Fatalf("fine-grained UDP counters %+v", got)
	}

	// Tenants ride along.
	withTenants := want
	withTenants.Tenants = []TenantStats{{Name: "acme", Weight: 2, Tuples: 6}}
	got2, err := DecodeSnapshot(withTenants.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, withTenants) {
		t.Fatalf("tenants round trip mismatch:\n got %+v\nwant %+v", got2, withTenants)
	}

	// Negative shard counter is corruption.
	bad := want
	bad.Shards = []ShardStats{{Lane: "x", Tasks: -1}}
	if _, err := DecodeSnapshot(bad.Encode()); err == nil || !strings.Contains(err.Error(), "negative shard") {
		t.Errorf("negative shard counter accepted: %v", err)
	}
}
