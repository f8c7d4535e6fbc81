// Command impstat runs implication queries over a stream file and prints
// the estimated counts, optionally comparing estimator backends.
//
// Usage:
//
//	impstat -q "SELECT COUNT(DISTINCT Destination) FROM t WHERE Destination IMPLIES Source" traffic.tsv
//	impstat -q "..." -backend all -interval 100000 traffic.tsv
//	impstat -q "..." -checkpoint run.ckpt -every 100000 traffic.tsv
//	impstat -resume run.ckpt traffic.tsv
//
// The -backend flag selects nips (default), exact, or all; with
// -interval the counts are printed every that many tuples, turning the tool
// into the §6.2 error-vs-stream-size probe.
//
// With -checkpoint the engine's full state (queries included) is written
// atomically to the named file every -every tuples and again at the end of
// the stream. After a crash, -resume restores the engine from the file,
// skips the stream to the recorded offset and continues — so a killed run
// resumed over the same file finishes with the same counts it would have
// produced uninterrupted. Corrupt checkpoints are rejected, never
// restored.
package main

import (
	"log"
	"os"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("impstat: ")

	cfg, rest, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if err := cfg.validate(); err != nil {
		log.Fatal(err)
	}
	if len(rest) != 1 {
		log.Fatal("expected exactly one stream file argument (use impgen to create one)")
	}
	f, err := os.Open(rest[0])
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := run(cfg, f, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
