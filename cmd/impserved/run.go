package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"implicate"
	"implicate/cmd/internal/backends"
	"implicate/internal/telemetry"
)

// queryList collects repeated -q flags so one server can register several
// statements (their registration order is their Query RPC statement id).
type queryList []string

func (q *queryList) String() string { return strings.Join(*q, "; ") }

func (q *queryList) Set(v string) error {
	*q = append(*q, v)
	return nil
}

// config carries the parsed command line.
type config struct {
	addr    string
	schema  string
	queries queryList
	backend string
	seed    uint64
	queue   int
	workers int

	checkpoint string
	every      int64
	resume     string

	admin      string
	traceSpans int
}

func parseFlags(args []string) (*config, []string, error) {
	fs := flag.NewFlagSet("impserved", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.addr, "addr", ":7171", "TCP listen address")
	fs.StringVar(&cfg.schema, "schema", "", "comma-separated stream attribute names (required)")
	fs.Var(&cfg.queries, "q", "implication query to serve (repeatable; required unless -resume)")
	fs.StringVar(&cfg.backend, "backend", "nips", "estimator backend: nips or exact")
	fs.Uint64Var(&cfg.seed, "seed", 1, "sketch seed")
	fs.IntVar(&cfg.queue, "queue", 64, "ingest queue depth in batches (full queue => backpressure)")
	fs.IntVar(&cfg.workers, "workers", 0, "pipeline worker pool size (0: GOMAXPROCS); results are identical at any size")
	fs.StringVar(&cfg.checkpoint, "checkpoint", "", "write crash-recovery checkpoints to this file")
	fs.Int64Var(&cfg.every, "every", 0, "checkpoint every N applied tuples (with -checkpoint; 0: only on shutdown)")
	fs.StringVar(&cfg.resume, "resume", "", "restore engine state from this checkpoint file")
	fs.StringVar(&cfg.admin, "admin", "", "HTTP admin listen address (/metrics, /healthz, /trace, pprof); empty: off. Unauthenticated — bind to loopback")
	fs.IntVar(&cfg.traceSpans, "trace-spans", 0, "event-tracer ring capacity in spans (4096 is conventional); 0: tracing off")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	return cfg, fs.Args(), nil
}

// validate rejects flag combinations that would otherwise fail late or be
// silently ignored.
func (cfg *config) validate() error {
	if cfg.schema == "" {
		return fmt.Errorf("missing -schema (comma-separated attribute names)")
	}
	if cfg.every < 0 {
		return fmt.Errorf("-every must be >= 0, got %d", cfg.every)
	}
	if cfg.every > 0 && cfg.checkpoint == "" {
		return fmt.Errorf("-every %d has no effect without -checkpoint; add -checkpoint FILE or drop -every", cfg.every)
	}
	if cfg.queue < 1 {
		return fmt.Errorf("-queue must be >= 1, got %d", cfg.queue)
	}
	if cfg.workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", cfg.workers)
	}
	if cfg.traceSpans < 0 {
		return fmt.Errorf("-trace-spans must be >= 0, got %d", cfg.traceSpans)
	}
	if cfg.resume != "" {
		if len(cfg.queries) > 0 {
			return fmt.Errorf("-resume restores the queries from the checkpoint; drop -q")
		}
		if _, err := os.Stat(cfg.resume); err != nil {
			return fmt.Errorf("cannot resume: %w", err)
		}
	} else if len(cfg.queries) == 0 {
		return fmt.Errorf("missing -q query (or -resume CHECKPOINT)")
	}
	return nil
}

// buildEngine constructs the engine to serve — fresh from -q, or restored
// from -resume.
func buildEngine(cfg *config, schema *implicate.Schema) (*implicate.Engine, error) {
	factories := backends.Table(cfg.seed)
	if cfg.resume != "" {
		snap, err := implicate.ReadCheckpoint(cfg.resume)
		if err != nil {
			return nil, err
		}
		resolve := func(q implicate.Query, kind string) (implicate.Backend, error) {
			b, ok := factories[kind]
			if !ok {
				return nil, fmt.Errorf("checkpoint needs a %q backend, which impserved cannot build", kind)
			}
			return b, nil
		}
		return implicate.RestoreCheckpoint(snap, schema, resolve)
	}
	backend, ok := factories[cfg.backend]
	if !ok {
		return nil, fmt.Errorf("unknown backend %q", cfg.backend)
	}
	eng := implicate.NewEngine(schema)
	for _, sql := range cfg.queries {
		if _, err := eng.RegisterSQL(sql, backend); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// addrs carries the bound listen addresses serve reports on ready.
type addrs struct {
	server string
	admin  string // empty when -admin is off
}

// serve runs the server until stop closes, then drains it and prints the
// telemetry summary to out. The bound addresses are sent on ready. With
// -trace-spans, SIGQUIT dumps the span ring to stderr instead of killing
// the process with stack traces (Go's default SIGQUIT behavior).
func serve(cfg *config, ready chan<- addrs, stop <-chan struct{}, out io.Writer) error {
	names := strings.Split(cfg.schema, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	schema, err := implicate.NewSchema(names...)
	if err != nil {
		return err
	}
	eng, err := buildEngine(cfg, schema)
	if err != nil {
		return err
	}
	srv, err := implicate.Serve(implicate.ServerConfig{
		Addr:            cfg.addr,
		Schema:          schema,
		Engine:          eng,
		QueueDepth:      cfg.queue,
		Workers:         cfg.workers,
		CheckpointPath:  cfg.checkpoint,
		CheckpointEvery: cfg.every,
		TraceSpans:      cfg.traceSpans,
	})
	if err != nil {
		return err
	}
	var admin *implicate.AdminServer
	if cfg.admin != "" {
		admin, err = implicate.ServeAdmin(cfg.admin, srv)
		if err != nil {
			srv.Close()
			return err
		}
	}
	if cfg.traceSpans > 0 {
		// Registering SIGQUIT suppresses Go's die-with-stacks default for
		// it only while tracing is on; SIGABRT still produces stacks.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		defer signal.Stop(quit)
		go func() {
			for range quit {
				dumpTrace(os.Stderr, srv.Tracer().Snapshot())
			}
		}()
	}
	ready <- addrs{server: srv.Addr(), admin: adminAddr(admin)}
	<-stop
	if err := srv.Close(); err != nil {
		return err
	}
	if admin != nil {
		admin.Close()
	}
	printSummary(out, eng, srv.Telemetry().Snapshot())
	return nil
}

func adminAddr(a *implicate.AdminServer) string {
	if a == nil {
		return ""
	}
	return a.Addr
}

// dumpTrace renders a span dump as text, one span per line, newest last.
func dumpTrace(w io.Writer, spans []implicate.TraceSpan) {
	fmt.Fprintf(w, "--- trace: %d spans ---\n", len(spans))
	for _, sp := range spans {
		fmt.Fprintf(w, "%8d %-10s arg=%-4d units=%-8d %s +%v\n",
			sp.Seq, sp.Kind, sp.Arg, sp.Units,
			time.Unix(0, sp.Start).UTC().Format("15:04:05.000000"),
			time.Duration(sp.Dur).Round(time.Microsecond))
	}
}

// printSummary renders the shutdown report: per-statement answers, then
// the telemetry counters.
func printSummary(out io.Writer, eng *implicate.Engine, sn implicate.ServerStats) {
	for i, st := range eng.Statements() {
		fmt.Fprintf(out, "stmt %d: %s = %.1f\n", i, st.Query().String(), st.Count())
	}
	fmt.Fprintf(out, "tuples=%d batches=%d rejected=%d merges=%d queue-high-water=%d\n",
		sn.TuplesIngested, sn.Batches, sn.BatchesRejected, sn.Merges, sn.QueueHighWater)
	if len(sn.Workers) > 0 {
		fmt.Fprintf(out, "pool: %d workers, %d saturated dispatches\n", len(sn.Workers), sn.PoolSaturation)
		for w, ws := range sn.Workers {
			fmt.Fprintf(out, "  worker %d: tasks=%d units=%d\n", w, ws.Tasks, ws.Units)
		}
	}
	ing := sn.Latency[telemetry.RPCIngest]
	if ing.Count() > 0 {
		fmt.Fprintf(out, "ingest latency p50=%v p99=%v (%d observations)\n",
			ing.Quantile(0.50).Round(time.Microsecond), ing.Quantile(0.99).Round(time.Microsecond), ing.Count())
	}
}
