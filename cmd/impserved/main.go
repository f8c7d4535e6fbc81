// Command impserved serves implication queries over TCP: remote producers
// ingest tuple batches, anyone can read the registered statements' counts,
// and downstream aggregators can merge leaf sketches shipped over the wire
// (the §2 aggregation tree as a real network service).
//
// Usage:
//
//	impserved -addr :7171 -schema Source,Destination \
//	    -q "SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination"
//	impserved -addr :7171 -schema Source,Destination -q "..." \
//	    -checkpoint node.ckpt -every 100000
//	impserved -addr :7171 -schema Source,Destination -resume node.ckpt
//
// The ingest queue is bounded (-queue); when it is full the server refuses
// batches with explicit backpressure replies that well-behaved clients
// (implicate.Dial) retry with backoff. On SIGINT/SIGTERM the server drains
// the queue, writes a final checkpoint when -checkpoint is set, and prints
// a telemetry summary. After a crash, -resume restores the engine from the
// checkpoint; producers replay their streams from the checkpoint offset.
//
// Observability: -admin ADDR serves the read-only HTTP admin endpoint
// (Prometheus /metrics, /healthz, a JSON /trace span dump, and pprof under
// /debug/pprof/) — it is unauthenticated, so bind it to loopback or an
// operations network. -trace-spans N enables the in-process event tracer
// with a ring of N spans; while it is on, SIGQUIT dumps the ring to stderr
// (overriding Go's default die-with-stacks handling of SIGQUIT) and the
// process keeps serving. cmd/imptop renders the same statistics as a live
// terminal dashboard.
package main

import (
	"log"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("impserved: ")

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
		log.Printf("received %v, draining", s)
		close(stop)
	}()

	ready := make(chan addrs, 1)
	go func() {
		a := <-ready
		line := "listening on " + a.server
		if a.admin != "" {
			line += ", admin on http://" + a.admin
		}
		log.Print(line)
	}()
	if err := serve(cfg, ready, stop, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
