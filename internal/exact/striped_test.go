package exact

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"implicate/internal/imps"
)

func stripedCond() imps.Conditions {
	return imps.Conditions{MaxMultiplicity: 2, MinSupport: 3, TopC: 1, MinTopConfidence: 0.6}
}

// stripedWorkload is a small stream with repeated keys, exclusions and
// re-qualifications, covering every state transition of the counter. The
// pairs carry the planner's hashes: the stripe router's seed is a constant,
// so any Counter's HashPairKeys serves every other.
func stripedWorkload(n int) []imps.HashedPair {
	hasher, err := NewStriped(stripedCond(), 1)
	if err != nil {
		panic(err)
	}
	pairs := make([]imps.HashedPair, n)
	for i := 0; i < n; i++ {
		p := &pairs[i]
		p.A, p.B = fmt.Sprintf("a%d", i%97), fmt.Sprintf("b%d", (i*7)%13)
		p.AH, p.BH = hasher.HashPairKeys(p.A, p.B)
	}
	return pairs
}

// TestStripedMatchesCounter drives the same stream through a one-stripe
// Counter's Add and through AddHashedPairs at several stripe counts; every
// answer, the health report and the encoding must match exactly.
func TestStripedMatchesCounter(t *testing.T) {
	cond := stripedCond()
	pairs := stripedWorkload(5000)

	ref := MustCounter(cond)
	for _, p := range pairs {
		ref.Add(p.A, p.B)
	}

	for _, stripes := range []int{1, 2, 4, 8} {
		s, err := NewStriped(cond, stripes)
		if err != nil {
			t.Fatal(err)
		}
		s.AddHashedPairs(pairs)
		if got, want := s.ImplicationCount(), ref.ImplicationCount(); got != want {
			t.Errorf("stripes=%d ImplicationCount=%v want %v", stripes, got, want)
		}
		if got, want := s.NonImplicationCount(), ref.NonImplicationCount(); got != want {
			t.Errorf("stripes=%d NonImplicationCount=%v want %v", stripes, got, want)
		}
		if got, want := s.SupportedDistinct(), ref.SupportedDistinct(); got != want {
			t.Errorf("stripes=%d SupportedDistinct=%v want %v", stripes, got, want)
		}
		if got, want := s.DistinctCount(), ref.DistinctCount(); got != want {
			t.Errorf("stripes=%d DistinctCount=%v want %v", stripes, got, want)
		}
		if got, want := s.AvgMultiplicity(), ref.AvgMultiplicity(); got != want {
			t.Errorf("stripes=%d AvgMultiplicity=%v want %v", stripes, got, want)
		}
		if got, want := s.Tuples(), ref.Tuples(); got != want {
			t.Errorf("stripes=%d Tuples=%v want %v", stripes, got, want)
		}
		if got, want := s.MemEntries(), ref.MemEntries(); got != want {
			t.Errorf("stripes=%d MemEntries=%v want %v", stripes, got, want)
		}
		if got, want := s.Health(), ref.Health(); got != want {
			t.Errorf("stripes=%d Health=%+v want %+v", stripes, got, want)
		}
		if got, want := s.Implicating(), ref.Implicating(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("stripes=%d Implicating=%v want %v", stripes, got, want)
		}
		got, _ := s.MarshalBinary()
		want, _ := ref.MarshalBinary()
		if !bytes.Equal(got, want) {
			t.Errorf("stripes=%d: encoding differs from the one-stripe counter's", stripes)
		}
	}
}

// TestStripedConcurrentPartitions splits a stream into partitions with
// IngestPartitionHashed and ingests each from its own goroutine (run with -race).
// Per-key order is preserved because a key's tuples share a partition, so
// the final state must equal the serial run bit for bit.
func TestStripedConcurrentPartitions(t *testing.T) {
	cond := stripedCond()
	pairs := stripedWorkload(20000)

	ref, err := NewStriped(cond, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref.AddHashedPairs(pairs)
	want, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	for _, parts := range []int{1, 2, 4, 8} {
		s, err := NewStriped(cond, 4)
		if err != nil {
			t.Fatal(err)
		}
		buckets := make([][]imps.HashedPair, parts)
		for _, p := range pairs {
			i := s.IngestPartitionHashed(p.AH, parts)
			buckets[i] = append(buckets[i], p)
		}
		var wg sync.WaitGroup
		for _, bucket := range buckets {
			wg.Add(1)
			go func(bucket []imps.HashedPair) {
				defer wg.Done()
				// Chunked adds interleave stripe lock acquisition across
				// partitions.
				for len(bucket) > 0 {
					n := min(256, len(bucket))
					s.AddHashedPairs(bucket[:n])
					bucket = bucket[n:]
				}
			}(bucket)
		}
		wg.Wait()
		got, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("parts=%d: concurrent partitioned ingest diverged from serial state", parts)
		}
	}
}

// TestStripedMarshalRoundTrip checks that marshalled state is independent
// of stripe geometry and restores exactly, whatever width it lands on.
func TestStripedMarshalRoundTrip(t *testing.T) {
	cond := stripedCond()
	pairs := stripedWorkload(5000)

	s2, _ := NewStriped(cond, 2)
	s8, _ := NewStriped(cond, 8)
	s2.AddHashedPairs(pairs)
	s8.AddHashedPairs(pairs)
	b2, err := s2.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b8, err := s8.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b2, b8) {
		t.Fatal("marshalled state depends on stripe count")
	}

	restored, err := UnmarshalStriped(b2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.ImplicationCount(), s2.ImplicationCount(); got != want {
		t.Fatalf("restored ImplicationCount=%v want %v", got, want)
	}
	if got, want := restored.Tuples(), s2.Tuples(); got != want {
		t.Fatalf("restored Tuples=%v want %v", got, want)
	}
	if got, want := restored.MemEntries(), s2.MemEntries(); got != want {
		t.Fatalf("restored MemEntries=%v want %v", got, want)
	}
	rb, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb, b2) {
		t.Fatal("re-marshalled restored state differs")
	}

	// Continued ingestion after restore behaves like the uninterrupted run.
	more := stripedWorkload(7000)[5000:]
	restored.AddHashedPairs(more)
	s2.AddHashedPairs(more)
	rb, _ = restored.MarshalBinary()
	ob, _ := s2.MarshalBinary()
	if !bytes.Equal(rb, ob) {
		t.Fatal("post-restore ingestion diverged from uninterrupted run")
	}
}

// TestStripedUnmarshalRejectsCorrupt spot-checks the validation paths.
func TestStripedUnmarshalRejectsCorrupt(t *testing.T) {
	s, _ := NewStriped(stripedCond(), 2)
	s.AddHashedPairs(stripedWorkload(100))
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalStriped(b[:len(b)-1], 0); err == nil {
		t.Fatal("truncated blob accepted")
	}
	bad := bytes.Clone(b)
	bad[4] ^= 0xff // magic version byte
	if _, err := UnmarshalStriped(bad, 0); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := UnmarshalStriped(b, 3); err == nil {
		t.Fatal("non-power-of-two stripe count accepted")
	}
}

// TestStripedInvalidConfig covers constructor validation.
func TestStripedInvalidConfig(t *testing.T) {
	if _, err := NewStriped(stripedCond(), 3); err == nil {
		t.Fatal("stripe count 3 accepted")
	}
	if _, err := NewStriped(imps.Conditions{}, 2); err == nil {
		t.Fatal("invalid conditions accepted")
	}
	s, err := NewStriped(stripedCond(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Stripes(); n < 1 || n&(n-1) != 0 {
		t.Fatalf("default stripe count %d not a power of two", n)
	}
}

// TestConcurrentAddAndReads feeds disjoint key sets through Add from several
// goroutines while others read (run with -race): at one stripe and at
// several, the counter ends in the serial state, since a key's tuples keep
// their order within one producer.
func TestConcurrentAddAndReads(t *testing.T) {
	cond := stripedCond()
	pairs := stripedWorkload(8000)
	ref := MustCounter(cond)
	for _, p := range pairs {
		ref.Add(p.A, p.B)
	}
	want, _ := ref.MarshalBinary()

	for _, stripes := range []int{1, 4} {
		c, err := NewStriped(cond, stripes)
		if err != nil {
			t.Fatal(err)
		}
		const producers = 4
		var wg, readers sync.WaitGroup
		stop := make(chan struct{})
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_, _, _ = c.ImplicationCount(), c.AvgMultiplicity(), c.Health()
				}
			}
		}()
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, p := range pairs {
					if int(p.AH%producers) == w {
						c.Add(p.A, p.B)
					}
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		readers.Wait()
		if got, _ := c.MarshalBinary(); !bytes.Equal(got, want) {
			t.Errorf("stripes=%d: concurrent Add diverged from the serial state", stripes)
		}
	}
}
