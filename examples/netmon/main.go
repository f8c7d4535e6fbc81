// Netmon simulates the router-monitoring application of §1–2: a security
// administrator watches, in real time, how many sources are hammering a
// handful of destinations — the flash-crowd / DDoS signature ("a large
// volume of traffic from a huge number of sources to a very small number
// of destinations") — as a windowed implication count over NIPS/CI
// sketches. Attack sources send many packets to at most a few victims, so
// they satisfy Source → Destination with a high support floor and a small
// multiplicity bound; diffuse background sources never reach the floor.
// A trigger fires when the windowed count jumps.
package main

import (
	"fmt"
	"log"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"implicate"
	"implicate/internal/gen"
)

func main() {
	const (
		tuples     = 400_000
		flashStart = 200_000
		window     = 50_000
		every      = 10_000
	)

	// "How many sources send ≥15 packets per window to at most three
	// destinations?" — Implication one-to-many, windowed (Table 2's
	// complex-implication row).
	cond := implicate.Conditions{
		MaxMultiplicity:  3,
		MinSupport:       15,
		TopC:             3,
		MinTopConfidence: 0.95,
	}

	var seed uint64
	sliding, err := implicate.NewSliding(window, every, func() implicate.Estimator {
		seed++
		sk, err := implicate.NewSketch(cond, implicate.Options{Seed: seed})
		if err != nil {
			panic(err)
		}
		return sk
	})
	if err != nil {
		log.Fatal(err)
	}

	g := gen.NewNetTraffic(gen.NetTrafficConfig{
		Seed:         7,
		Sources:      20_000,
		Destinations: 5_000,
		FlashSources: 1_000,
		FlashTargets: 3,
		FlashAfter:   flashStart,
	})
	schema := gen.NetTrafficSchema()
	src := schema.MustProj("Source")
	dst := schema.MustProj("Destination")

	fmt.Println("netmon: windowed count of sources hammering ≤3 destinations (≥15 pkts/window)")
	alerted := false
	capture := make([]implicate.HashedPair, 0, tuples)
	for g.Tuples() < tuples {
		t, err := g.Next()
		if err != nil {
			log.Fatal(err)
		}
		a, b := src.Key(t), dst.Key(t)
		capture = append(capture, implicate.HashedPair{A: a, B: b})
		sliding.Add(a, b)
		if g.Tuples()%25_000 == 0 {
			hot := sliding.ImplicationCount()
			marker := ""
			if hot > 100 && !alerted {
				marker = "  <-- TRIGGER: possible flash crowd / DDoS"
				alerted = true
			}
			fmt.Printf("  t=%7d  hammering sources ≈ %7.1f%s\n", g.Tuples(), hot, marker)
		}
	}
	if !alerted {
		fmt.Println("netmon: no trigger fired (unexpected for this scenario)")
		return
	}
	fmt.Printf("netmon: flash crowd began at t=%d; memory in use: %d counter entries across %d window sketches\n",
		flashStart, sliding.MemEntries(), sliding.Estimators())

	// Forensic pass: after the trigger, re-analyze the attack segment of the
	// recorded capture on all cores at once. Producers hash the segment in
	// parallel outside any lock, then each feeds one Sketch striped for
	// GOMAXPROCS with its own partition of the A keys, in capture order and
	// in batches; each batch touches each stripe's lock at most once, so the
	// pass scales with the cores instead of serializing on one lock, and
	// the estimate is the one a one-stripe Sketch reads after the same
	// segment in capture order.
	workers := 1 << (bits.Len(uint(runtime.GOMAXPROCS(0))) - 1) // partitions come in powers of two
	ss, err := implicate.NewShardedSketch(cond, implicate.Options{Seed: 1}, 0)
	if err != nil {
		log.Fatal(err)
	}
	segment := capture[flashStart:]
	const batch = 512
	start := time.Now()
	var wg sync.WaitGroup
	per := (len(segment) + workers - 1) / workers
	for off := 0; off < len(segment); off += per {
		wg.Add(1)
		go func(part []implicate.HashedPair) {
			defer wg.Done()
			for i := range part {
				part[i].AH, part[i].BH = ss.HashPairKeys(part[i].A, part[i].B)
			}
		}(segment[off:min(off+per, len(segment))])
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := make([]implicate.HashedPair, 0, batch)
			for _, p := range segment {
				if ss.IngestPartitionHashed(p.AH, workers) != w {
					continue
				}
				if own = append(own, p); len(own) == batch {
					ss.AddHashedPairs(own)
					own = own[:0]
				}
			}
			ss.AddHashedPairs(own)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	fmt.Printf("netmon: forensic replay of the attack window: %d tuples across %d producers (%d stripes) in %v (%.1fM tuples/s)\n",
		len(segment), workers, ss.Shards(), elapsed.Round(time.Millisecond),
		float64(len(segment))/elapsed.Seconds()/1e6)

	ref, err := implicate.NewSketch(cond, implicate.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range segment {
		ref.Add(p.A, p.B)
	}
	got, want := ss.ImplicationCount(), ref.ImplicationCount()
	if got != want {
		log.Fatalf("netmon: forensic estimate %.1f differs from the one-stripe sketch's %.1f", got, want)
	}
	fmt.Printf("netmon: sources hammering ≤3 destinations during the attack ≈ %.1f (equal to a one-stripe sketch fed in capture order)\n", got)
}
