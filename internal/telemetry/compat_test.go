package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"

	"implicate/internal/wire"
)

// TestQuantileEdgeCases pins the documented edge behavior: empty histogram,
// q at and beyond both ends, NaN, and a single-bucket distribution where
// every quantile is that bucket's bound.
func TestQuantileEdgeCases(t *testing.T) {
	single := Histogram{}
	single.Counts[12] = 37
	two := Histogram{}
	two.Counts[10] = 90
	two.Counts[20] = 10
	cases := []struct {
		name string
		h    Histogram
		q    float64
		want time.Duration
	}{
		{"empty p0", Histogram{}, 0, 0},
		{"empty p50", Histogram{}, 0.5, 0},
		{"empty p100", Histogram{}, 1, 0},
		{"empty NaN", Histogram{}, math.NaN(), 0},
		{"NaN", two, math.NaN(), 0},
		{"single p0", single, 0, 1 << 12},
		{"single p50", single, 0.5, 1 << 12},
		{"single p100", single, 1, 1 << 12},
		{"two p0 is min bucket", two, 0, 1 << 10},
		{"two p100 is max bucket", two, 1, 1 << 20},
		{"two below-range clamps to p0", two, -3, 1 << 10},
		{"two above-range clamps to p100", two, 7, 1 << 20},
		{"two +Inf clamps to p100", two, math.Inf(1), 1 << 20},
		{"two -Inf clamps to p0", two, math.Inf(-1), 1 << 10},
		{"two p89 stays in low bucket", two, 0.89, 1 << 10},
		{"two p91 crosses", two, 0.91, 1 << 20},
	}
	for _, tc := range cases {
		if got := tc.h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestDecodeSnapshotRejectsOtherBuilds pins the compatibility rule: a
// coordinator and its leaves come from one build, so a snapshot in any
// other format is refused, never half-read. That covers another version
// byte and an RPC list of any length but this build's (histograms are
// matched to RPCs by position; a shorter or longer list cannot be mapped).
func TestDecodeSnapshotRejectsOtherBuilds(t *testing.T) {
	var s Set
	s.AddTuples(7)
	s.Observe(RPCQuery, time.Microsecond)
	good := s.Snapshot().Encode()
	if _, err := DecodeSnapshot(good); err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{0, 1, 2, 3, 4, 6, 0xff} {
		other := append([]byte(nil), good...)
		other[len(snapshotMagic)-1] = v
		if _, err := DecodeSnapshot(other); err == nil {
			t.Errorf("snapshot with version byte %d accepted", v)
		}
	}

	// encode writes a snapshot whose RPC list has nrpc entries, every other
	// field well-formed and empty.
	encode := func(nrpc int) []byte {
		e := wire.NewEncoder(64 + nrpc*HistBuckets*8)
		e.Raw([]byte(snapshotMagic))
		for i := 0; i < 9; i++ {
			e.I64(0)
		}
		e.U32(0) // no workers
		e.U32(uint32(nrpc))
		e.U32(HistBuckets)
		for r := 0; r < nrpc; r++ {
			for b := 0; b < HistBuckets; b++ {
				e.U64(0)
			}
		}
		e.U32(0) // no tenants
		for i := 0; i < 5; i++ {
			e.I64(0)
		}
		e.U32(0) // no shards
		return e.Bytes()
	}
	if _, err := DecodeSnapshot(encode(int(NumRPCs))); err != nil {
		t.Fatalf("this build's RPC count refused: %v", err)
	}
	for _, n := range []int{0, 1, int(NumRPCs) - 1, int(NumRPCs) + 1} {
		if _, err := DecodeSnapshot(encode(n)); err == nil {
			t.Errorf("snapshot with %d RPCs accepted (want exactly %d)", n, NumRPCs)
		}
	}
}

// TestConcurrentObserveSnapshotConfigure interleaves Observe, AddWorkerTask,
// Snapshot and ConfigureWorkers from concurrent goroutines — the
// reconfiguration race the atomic worker-block swap exists for. Run under
// -race; the assertion is only that snapshots stay well-formed (a worker
// block is read coherently or not at all).
func TestConcurrentObserveSnapshotConfigure(t *testing.T) {
	var s Set
	s.ConfigureWorkers(4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Observe(RPC(i%int(NumRPCs)), time.Duration(1)<<uint(i%16))
				s.AddWorkerTask(g, 1)
				s.AddTuples(1)
				s.ObserveQueueDepth(i % 32)
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			sn := s.Snapshot()
			if len(sn.Workers) != 0 && len(sn.Workers) != 2 && len(sn.Workers) != 4 {
				t.Errorf("torn worker block: %d entries", len(sn.Workers))
				return
			}
			for _, w := range sn.Workers {
				if w.Tasks < 0 || w.Units < 0 {
					t.Errorf("negative worker counters %+v", w)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if i%2 == 0 {
				s.ConfigureWorkers(2)
			} else {
				s.ConfigureWorkers(4)
			}
		}
	}()
	// Let the reconfiguration and snapshot loops finish, then stop writers.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}
