package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"implicate"
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
	addr      string
	udp       string
	udpWindow int
	schema    string
	queries   queryList
	backend   string
	seed      uint64
	ilcEps    float64
	dsSize    int
	dsBound   int
	queue     int
	workers   int

	checkpoint string
	every      int64
	resume     string

	tenants  string
	tokenKey string
	ckptDir  string

	admin      string
	traceSpans int
}

func parseFlags(args []string) (*config, []string, error) {
	fs := flag.NewFlagSet("impserved", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.addr, "addr", ":7171", "TCP listen address")
	fs.StringVar(&cfg.udp, "udp", "", "UDP ingest lane listen address (at-most-once datagram batches); empty: off")
	fs.IntVar(&cfg.udpWindow, "udp-window", 256, "UDP lane per-source reorder window in sequence numbers (with -udp)")
	fs.StringVar(&cfg.schema, "schema", "", "comma-separated stream attribute names (required)")
	fs.Var(&cfg.queries, "q", "implication query to serve (repeatable; required unless -resume)")
	fs.StringVar(&cfg.backend, "backend", "nips", "estimator backend: nips, sharded, exact, exact-striped, ilc, ds")
	fs.Uint64Var(&cfg.seed, "seed", 1, "sketch seed")
	fs.Float64Var(&cfg.ilcEps, "ilc-eps", 0.01, "ILC approximation parameter (and relative support)")
	fs.IntVar(&cfg.dsSize, "ds-size", 1920, "Distinct Sampling entry budget")
	fs.IntVar(&cfg.dsBound, "ds-bound", 39, "Distinct Sampling per-value bound")
	fs.IntVar(&cfg.queue, "queue", 64, "ingest queue depth in batches (full queue => backpressure)")
	fs.IntVar(&cfg.workers, "workers", 0, "pipeline worker pool size (0: GOMAXPROCS); results are identical at any size")
	fs.StringVar(&cfg.checkpoint, "checkpoint", "", "write crash-recovery checkpoints to this file")
	fs.Int64Var(&cfg.every, "every", 0, "checkpoint every N applied tuples (with -checkpoint; 0: only on shutdown)")
	fs.StringVar(&cfg.resume, "resume", "", "restore engine state from this checkpoint file")
	fs.StringVar(&cfg.tenants, "tenants", "", "comma-separated named tenants to serve, each NAME[:WEIGHT] (all share -q and -backend); empty: single-tenant")
	fs.StringVar(&cfg.tokenKey, "token-key", "", "HMAC key signing tenant connect tokens (with -tenants); empty: tokens not checked")
	fs.StringVar(&cfg.ckptDir, "ckpt-dir", "", "directory for per-tenant checkpoint files <dir>/<tenant>.ckpt (with -tenants)")
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
	// A window below 1 would wrap negative through the lane's uint64
	// conversion and disable the reorder bound entirely; refuse it here the
	// same way the server config does.
	if cfg.udp != "" && cfg.udpWindow < 1 {
		return fmt.Errorf("-udp-window must be >= 1, got %d", cfg.udpWindow)
	}
	if cfg.workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", cfg.workers)
	}
	if cfg.traceSpans < 0 {
		return fmt.Errorf("-trace-spans must be >= 0, got %d", cfg.traceSpans)
	}
	if cfg.tenants == "" {
		if cfg.tokenKey != "" {
			return fmt.Errorf("-token-key has no effect without -tenants")
		}
		if cfg.ckptDir != "" {
			return fmt.Errorf("-ckpt-dir has no effect without -tenants")
		}
	} else {
		if cfg.resume != "" {
			return fmt.Errorf("-tenants cannot be combined with -resume; named tenants resume from -ckpt-dir")
		}
		if _, err := parseTenants(cfg); err != nil {
			return err
		}
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

// parseTenants expands -tenants: comma-separated NAME[:WEIGHT] specs, each
// tenant serving the shared -q statements on the shared -backend. Richer
// per-tenant shapes (own queries, quotas, budgets) arrive at runtime via
// the admin endpoint's POST /tenants.
func parseTenants(cfg *config) ([]implicate.TenantConfig, error) {
	var out []implicate.TenantConfig
	for _, spec := range strings.Split(cfg.tenants, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, weight := spec, 0
		if i := strings.IndexByte(spec, ':'); i >= 0 {
			w, err := strconv.Atoi(spec[i+1:])
			if err != nil || w < 1 {
				return nil, fmt.Errorf("-tenants: bad weight in %q (want NAME[:WEIGHT])", spec)
			}
			name, weight = spec[:i], w
		}
		out = append(out, implicate.TenantConfig{
			Name:    name,
			Queries: cfg.queries,
			Backend: cfg.backend,
			Weight:  weight,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-tenants: no tenant names in %q", cfg.tenants)
	}
	return out, nil
}

// backendsFor builds the named backend factories the command line selects.
func backendsFor(cfg *config) map[string]implicate.Backend {
	return map[string]implicate.Backend{
		"nips":          implicate.SketchBackend(implicate.Options{Seed: cfg.seed}),
		"sharded":       implicate.ShardedSketchBackend(implicate.Options{Seed: cfg.seed}, 0),
		"exact":         implicate.ExactBackend(),
		"exact-striped": implicate.StripedExactBackend(0),
		"ilc": func(cond implicate.Conditions) (implicate.Estimator, error) {
			return implicate.NewILC(cond, cfg.ilcEps, cfg.ilcEps)
		},
		"ds": func(cond implicate.Conditions) (implicate.Estimator, error) {
			return implicate.NewDistinctSampling(cond, cfg.dsSize, cfg.dsBound, cfg.seed+7)
		},
	}
}

// buildEngine constructs the engine to serve — fresh from -q, or restored
// from -resume.
func buildEngine(cfg *config, schema *implicate.Schema) (*implicate.Engine, error) {
	factories := backendsFor(cfg)
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
	udp    string // empty when -udp is off
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
	var tenants []implicate.TenantConfig
	if cfg.tenants != "" {
		if tenants, err = parseTenants(cfg); err != nil {
			return err
		}
	}
	srv, err := implicate.Serve(implicate.ServerConfig{
		Addr:            cfg.addr,
		UDPAddr:         cfg.udp,
		UDPWindow:       cfg.udpWindow,
		Schema:          schema,
		Engine:          eng,
		QueueDepth:      cfg.queue,
		Workers:         cfg.workers,
		CheckpointPath:  cfg.checkpoint,
		CheckpointEvery: cfg.every,
		TraceSpans:      cfg.traceSpans,
		TokenKey:        []byte(cfg.tokenKey),
		Tenants:         tenants,
		Backends:        implicate.TenantBackends(backendsFor(cfg)),
		CheckpointDir:   cfg.ckptDir,
	})
	if err != nil {
		return err
	}
	if cfg.tokenKey != "" {
		// Connect tokens are derived, not stored; print them once so the
		// operator can hand them to producers. The key itself never leaves
		// the flag.
		for _, tc := range tenants {
			fmt.Fprintf(out, "tenant %s token %s\n", tc.Name, implicate.TenantToken([]byte(cfg.tokenKey), tc.Name))
		}
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
	ready <- addrs{server: srv.Addr(), udp: srv.UDPAddr(), admin: adminAddr(admin)}
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
	if sn.UDPDatagrams > 0 || sn.UDPDups > 0 || sn.UDPDrops > 0 {
		fmt.Fprintf(out, "udp: datagrams=%d dups=%d drops=%d\n", sn.UDPDatagrams, sn.UDPDups, sn.UDPDrops)
	}
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
