package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"implicate/internal/imps"
)

// shardWorkload builds a deterministic stream mixing implicating itemsets,
// multiplicity violators, and under-supported background noise, with enough
// volume to exercise fringe floats, tombstones and overflows.
func shardWorkload(seed int64, n int) []imps.HashedPair {
	rng := rand.New(rand.NewSource(seed))
	var tuples []imps.HashedPair
	for i := 0; i < n/10; i++ {
		a := fmt.Sprintf("imp-%d", i)
		for s := 0; s < 5; s++ {
			tuples = append(tuples, imps.HashedPair{A: a, B: fmt.Sprintf("p-%d", i%7)})
		}
	}
	for i := 0; i < n/20; i++ {
		a := fmt.Sprintf("non-%d", i)
		for s := 0; s < 8; s++ {
			tuples = append(tuples, imps.HashedPair{A: a, B: fmt.Sprintf("nb-%d-%d", i, s)})
		}
	}
	for len(tuples) < n {
		tuples = append(tuples, imps.HashedPair{A: fmt.Sprintf("bg-%d", rng.Intn(n)), B: fmt.Sprintf("bp-%d", rng.Intn(64))})
	}
	rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
	return tuples[:n]
}

type estimates struct {
	impl, nonImpl, supported, distinct, avgMult float64
	ci                                          float64
	tuples                                      int64
	mem                                         int
	fringe                                      FringeStats
}

func estimatesOfSketch(s *Sketch) estimates {
	return estimates{
		impl:      s.ImplicationCount(),
		nonImpl:   s.NonImplicationCount(),
		supported: s.SupportedDistinct(),
		distinct:  s.DistinctCount(),
		avgMult:   s.AvgMultiplicity(),
		ci:        s.CIImplicationCount(),
		tuples:    s.Tuples(),
		mem:       s.MemEntries(),
		fringe:    s.Fringe(),
	}
}

func estimatesOfSharded(s *ShardedSketch) estimates {
	return estimates{
		impl:      s.ImplicationCount(),
		nonImpl:   s.NonImplicationCount(),
		supported: s.SupportedDistinct(),
		distinct:  s.DistinctCount(),
		avgMult:   s.AvgMultiplicity(),
		ci:        s.CIImplicationCount(),
		tuples:    s.Tuples(),
		mem:       s.MemEntries(),
		fringe:    s.Fringe(),
	}
}

func TestNewShardedSketchValidation(t *testing.T) {
	cond := testConditions()
	if _, err := NewShardedSketch(cond, Options{}, 3); err == nil {
		t.Fatal("non-power-of-two shard count accepted")
	}
	if _, err := NewShardedSketch(cond, Options{Bitmaps: 4}, 8); err == nil {
		t.Fatal("shard count exceeding bitmap count accepted")
	}
	if _, err := NewShardedSketch(imps.Conditions{}, Options{}, 2); err == nil {
		t.Fatal("zero conditions accepted")
	}
	ss, err := NewShardedSketch(cond, Options{}, 0)
	if err != nil {
		t.Fatalf("default shard count rejected: %v", err)
	}
	if n := ss.Shards(); n < 1 || n&(n-1) != 0 {
		t.Fatalf("default shard count %d not a power of two", n)
	}
	if ss.Options().Bitmaps != DefaultBitmaps {
		t.Fatalf("effective options lost the global bitmap count: %+v", ss.Options())
	}
}

// TestShardedDeterminism is the core contract: a ShardedSketch with any
// shard count, fed any permutation of the stream, reports bit-identical
// estimates to a single same-seed Sketch fed the same order.
func TestShardedDeterminism(t *testing.T) {
	cond := testConditions()
	opts := Options{Seed: 42}
	base := shardWorkload(1, 30_000)

	for perm := 0; perm < 3; perm++ {
		tuples := append([]imps.HashedPair(nil), base...)
		rand.New(rand.NewSource(int64(perm))).Shuffle(len(tuples), func(i, j int) {
			tuples[i], tuples[j] = tuples[j], tuples[i]
		})
		single := MustSketch(cond, opts)
		for _, p := range tuples {
			single.Add(p.A, p.B)
		}
		want := estimatesOfSketch(single)
		if want.impl == 0 || want.nonImpl == 0 {
			t.Fatalf("degenerate workload: %+v", want)
		}

		for _, n := range []int{1, 2, 4, 8} {
			ss, err := NewShardedSketch(cond, opts, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tuples {
				ss.Add(p.A, p.B)
			}
			ss.Flush()
			if got := estimatesOfSharded(ss); got != want {
				t.Errorf("perm %d, %d shards: estimates diverge\n got %+v\nwant %+v", perm, n, got, want)
			}
		}
	}
}

// TestShardedIsOneSketch: a ShardedSketch at any stripe count, fed a seeded
// random stream in random batches, encodes as the Sketch fed the same stream
// — byte for byte outside the peak field — and its bytes decode to a Sketch
// in the same state: every bitmap, every cell and every estimator read.
func TestShardedIsOneSketch(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		cond, opts, tuples := randomSplitCase(rng, seed)
		opts.Bitmaps = max(opts.Bitmaps, 8)
		single := MustSketch(cond, opts)
		for _, tu := range tuples {
			single.Add(tu[0], tu[1])
		}
		want, err := single.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4, 8} {
			ss, err := NewShardedSketch(cond, opts, n)
			if err != nil {
				t.Fatal(err)
			}
			pairs := make([]imps.HashedPair, len(tuples))
			for i, tu := range tuples {
				pairs[i].AH, pairs[i].BH = ss.HashPairKeys(tu[0], tu[1])
			}
			for off := 0; off < len(pairs); {
				next := min(off+1+rng.Intn(300), len(pairs))
				ss.AddHashedPairs(pairs[off:next])
				off = next
			}
			got, err := ss.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("seed=%d/n=%d", seed, n), func(t *testing.T) {
				requireNIPS1ButPeak(t, got, want)
				restored, err := UnmarshalSketch(got)
				if err != nil {
					t.Fatal(err)
				}
				if restored.peak != restored.entries {
					t.Fatalf("peak field %d, want the live entry count %d", restored.peak, restored.entries)
				}
				restored.peak = single.peak // the one figure a sharded sketch does not keep
				requireSameState(t, single, restored)
			})
		}
	}
}

// hashPairs fills every pair's hashes with the sketch's own functions, as a
// planner would.
func hashPairs(ss *ShardedSketch, pairs []imps.HashedPair) []imps.HashedPair {
	out := append([]imps.HashedPair(nil), pairs...)
	for i := range out {
		out[i].AH, out[i].BH = ss.HashPairKeys(out[i].A, out[i].B)
	}
	return out
}

// TestShardedBatchPathsMatch verifies every ingest path (Add, AddHashed,
// AddHashedPairs over planner-hashed pairs at two batch sizes) lands on the
// same estimates.
func TestShardedBatchPathsMatch(t *testing.T) {
	cond := testConditions()
	opts := Options{Seed: 7}
	tuples := shardWorkload(2, 8_000)

	ref, err := NewShardedSketch(cond, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tuples {
		ref.Add(p.A, p.B)
	}
	want := estimatesOfSharded(ref)
	hashed := hashPairs(ref, tuples)

	byHash, _ := NewShardedSketch(cond, opts, 4)
	for _, p := range hashed {
		byHash.AddHashed(p.AH, p.BH)
	}
	if got := estimatesOfSharded(byHash); got != want {
		t.Errorf("AddHashed diverges:\n got %+v\nwant %+v", got, want)
	}

	for _, size := range []int{64, 300} {
		byPairs, _ := NewShardedSketch(cond, opts, 4)
		for off := 0; off < len(hashed); off += size {
			byPairs.AddHashedPairs(hashed[off:min(off+size, len(hashed))])
		}
		if got := estimatesOfSharded(byPairs); got != want {
			t.Errorf("AddHashedPairs in batches of %d diverges:\n got %+v\nwant %+v", size, got, want)
		}
	}

	// The plain Sketch hashes with the same seeded functions: forwarding the
	// sharded sketch's hashes to it equals its own per-tuple path.
	single := MustSketch(cond, opts)
	for _, p := range tuples {
		single.Add(p.A, p.B)
	}
	prehashed := MustSketch(cond, opts)
	for _, p := range hashed {
		prehashed.AddHashed(p.AH, p.BH)
	}
	if a, b := estimatesOfSketch(single), estimatesOfSketch(prehashed); a != b {
		t.Errorf("Sketch.AddHashed diverges:\n got %+v\nwant %+v", b, a)
	}
}

// TestShardedIntervalAndReset checks the remaining aggregate readers.
func TestShardedIntervalAndReset(t *testing.T) {
	cond := testConditions()
	opts := Options{Seed: 11}
	tuples := shardWorkload(3, 10_000)

	single := MustSketch(cond, opts)
	ss, _ := NewShardedSketch(cond, opts, 4)
	for _, p := range tuples {
		single.Add(p.A, p.B)
		ss.Add(p.A, p.B)
	}
	slo, shi := single.ImplicationCountInterval(2)
	plo, phi := ss.ImplicationCountInterval(2)
	if slo != plo || shi != phi {
		t.Errorf("interval diverges: single [%g,%g] sharded [%g,%g]", slo, shi, plo, phi)
	}
	if single.MinEstimable() != ss.MinEstimable() {
		t.Errorf("MinEstimable diverges: %g vs %g", single.MinEstimable(), ss.MinEstimable())
	}

	ss.Reset()
	if ss.Tuples() != 0 || ss.MemEntries() != 0 || ss.ImplicationCount() != 0 {
		t.Fatal("Reset left residual state")
	}
	// Refeeding after Reset reproduces the estimates.
	for _, p := range tuples {
		ss.Add(p.A, p.B)
	}
	if got, want := estimatesOfSharded(ss), estimatesOfSketch(single); got != want {
		t.Errorf("post-Reset estimates diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestShardedConcurrentStress hammers one ShardedSketch with 8 producers
// using mixed ingest paths while readers query concurrently; run under
// -race this is the data-race proof. Estimates that are pure functions of
// the observed SET of tuples (tuple count, distinct count) must come out
// exactly; the order-sensitive ones are sanity-bounded against a serial
// reference.
func TestShardedConcurrentStress(t *testing.T) {
	cond := testConditions()
	opts := Options{Seed: 99}
	const producers = 8
	tuples := shardWorkload(4, 40_000)

	serial := MustSketch(cond, opts)
	for _, p := range tuples {
		serial.Add(p.A, p.B)
	}

	ss, err := NewShardedSketch(cond, opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	per := len(tuples) / producers
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(part []imps.HashedPair, mode int) {
			defer wg.Done()
			switch mode % 3 {
			case 0:
				for _, p := range part {
					ss.Add(p.A, p.B)
				}
			case 1:
				hashed := hashPairs(ss, part)
				for off := 0; off < len(hashed); off += 97 {
					ss.AddHashedPairs(hashed[off:min(off+97, len(hashed))])
				}
			default:
				ss.AddHashedPairs(hashPairs(ss, part))
			}
		}(tuples[g*per:(g+1)*per], g)
	}
	// Concurrent readers exercise the aggregate paths mid-ingest.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ss.ImplicationCount() < 0 || ss.MemEntries() < 0 {
					t.Error("negative estimate under concurrency")
					return
				}
				ss.Fringe()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	ss.Flush()

	total := int64(per * producers)
	if got := ss.Tuples(); got != total {
		t.Fatalf("tuple count %d, want %d", got, total)
	}
	// The touched-bit reader depends only on the set of hashes, never on
	// arrival order, so it must be bit-identical to the serial reference
	// over the same tuples.
	serialSubset := MustSketch(cond, opts)
	for _, p := range tuples[:per*producers] {
		serialSubset.Add(p.A, p.B)
	}
	if got, want := ss.DistinctCount(), serialSubset.DistinctCount(); got != want {
		t.Errorf("DistinctCount %g diverges from order-independent reference %g", got, want)
	}
	// Order-sensitive estimates can differ across interleavings only through
	// fringe-float edge cases; they must stay in the same ballpark.
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"ImplicationCount", ss.ImplicationCount(), serialSubset.ImplicationCount()},
		{"SupportedDistinct", ss.SupportedDistinct(), serialSubset.SupportedDistinct()},
		{"NonImplicationCount", ss.NonImplicationCount(), serialSubset.NonImplicationCount()},
	} {
		if c.got < 0.5*c.want || c.got > 2*c.want {
			t.Errorf("%s under concurrency: %g vs serial %g", c.name, c.got, c.want)
		}
	}
}
