// Command impcoordd coordinates a fleet of impserved leaves: the managed
// form of the paper's §2 aggregation tree (DESIGN.md §12). It speaks the
// same wire protocol an impserved leaf does, so producers and queriers
// need no fleet awareness — IngestBatch frames are routed to exactly one
// leaf by their sketch bitmap, Query and Snapshot answer from the merged
// fleet state, and Cluster reports membership.
//
// Usage:
//
//	impserved -addr 127.0.0.1:7101 -schema Source,Destination -seed 7 \
//	    -checkpoint leaf0.ckpt -every 100000 -q "SELECT ..." &
//	impserved -addr 127.0.0.1:7102 -schema Source,Destination -seed 7 \
//	    -checkpoint leaf1.ckpt -every 100000 -q "SELECT ..." &
//	impcoordd -listen :7100 -schema Source,Destination \
//	    -leaves leaf0=127.0.0.1:7101,leaf1=127.0.0.1:7102 \
//	    -q "SELECT ..."
//
// Leaves must serve the same schema and statements with merge-compatible
// estimators: the plain "nips" sketch backend with one shared -seed on
// every leaf, checked at startup; the fleet splits their m bitmaps, so run
// at most m leaves. Leaf NAMES are the stable routing identities — keep them
// fixed across restarts and address changes, or tuples re-route and the
// fleet's determinism contract breaks.
//
// When a leaf stops answering health probes it is marked down. Routing
// does not change: the dead leaf keeps its bitmaps and its traffic
// queues in the coordinator's in-memory journal. Restart the leaf from
// its latest checkpoint (impserved -resume) on the same address; the
// coordinator re-admits it, reads back its restored offset, and replays
// the journal from that boundary — the recovered fleet's answers are
// bit-identical to a fleet that never crashed.
//
// On SIGINT/SIGTERM the coordinator stops accepting, flushes the journal
// into the fleet, and prints the final statement answers and membership
// view.
package main

import (
	"log"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("impcoordd: ")

	cfg, rest, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if len(rest) != 0 {
		log.Fatalf("unexpected arguments %q", rest)
	}
	if err := cfg.validate(); err != nil {
		log.Fatal(err)
	}

	stop := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		log.Printf("received %v, flushing the fleet", s)
		close(stop)
	}()

	ready := make(chan coordAddrs, 1)
	go func() {
		a := <-ready
		if a.admin != "" {
			log.Printf("coordinating %d leaves, listening on %s, admin on http://%s", len(cfg.leafSpecs), a.front, a.admin)
			return
		}
		log.Printf("coordinating %d leaves, listening on %s", len(cfg.leafSpecs), a.front)
	}()
	if err := serve(cfg, ready, stop, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
