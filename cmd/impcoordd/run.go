package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"implicate"
)

// queryList collects repeated -q flags; their order is their statement id,
// and must match the leaves' registration order.
type queryList []string

func (q *queryList) String() string { return strings.Join(*q, "; ") }

func (q *queryList) Set(v string) error {
	*q = append(*q, v)
	return nil
}

// config carries the parsed command line.
type config struct {
	listen  string
	leaves  string
	schema  string
	queries queryList

	flush int

	probeEvery   time.Duration
	probeTimeout time.Duration
	probeFails   int
	drainTimeout time.Duration

	admin      string
	traceSpans int

	leafSpecs []implicate.LeafSpec // filled by validate
}

func parseFlags(args []string) (*config, []string, error) {
	fs := flag.NewFlagSet("impcoordd", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.listen, "listen", ":7100", "TCP listen address for the fleet front-end")
	fs.StringVar(&cfg.leaves, "leaves", "", "fleet members as name=addr,name=addr (required); names are stable routing identities")
	fs.StringVar(&cfg.schema, "schema", "", "comma-separated stream attribute names (required)")
	fs.Var(&cfg.queries, "q", "implication query the fleet serves (repeatable; required); must match the leaves' registration order")
	fs.IntVar(&cfg.flush, "flush", 512, "per-leaf batch size in tuples: routed tuples buffer until a leaf has this many")
	fs.DurationVar(&cfg.probeEvery, "probe-every", 50*time.Millisecond, "health-probe period per leaf")
	fs.DurationVar(&cfg.probeTimeout, "probe-timeout", time.Second, "health-probe round-trip bound")
	fs.IntVar(&cfg.probeFails, "probe-fails", 3, "consecutive probe failures before a leaf is marked down")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "bound on a fleet flush's drain and on a query's wait for a recovering leaf")
	fs.StringVar(&cfg.admin, "admin", "", "fleet admin HTTP address (/metrics, /healthz, /fleet, /trace, pprof); empty disables")
	fs.IntVar(&cfg.traceSpans, "trace-spans", 0, "span ring capacity for cross-node tracing; 0 disables; leaves must be trace-aware builds")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	return cfg, fs.Args(), nil
}

// parseLeaves turns "name=addr,name=addr" into leaf specs, rejecting
// malformed entries and duplicate names early with a flag-shaped error.
func parseLeaves(s string) ([]implicate.LeafSpec, error) {
	var specs []implicate.LeafSpec
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		name, addr = strings.TrimSpace(name), strings.TrimSpace(addr)
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("leaf %q is not name=addr", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate leaf name %q", name)
		}
		seen[name] = true
		specs = append(specs, implicate.LeafSpec{Name: name, Addr: addr})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no leaves")
	}
	return specs, nil
}

// validate rejects flag combinations that would otherwise fail late, and
// resolves the leaf list.
func (cfg *config) validate() error {
	if cfg.schema == "" {
		return fmt.Errorf("missing -schema (comma-separated attribute names)")
	}
	if len(cfg.queries) == 0 {
		return fmt.Errorf("missing -q query")
	}
	if cfg.leaves == "" {
		return fmt.Errorf("missing -leaves (name=addr,name=addr)")
	}
	specs, err := parseLeaves(cfg.leaves)
	if err != nil {
		return fmt.Errorf("-leaves: %w", err)
	}
	cfg.leafSpecs = specs
	if cfg.flush < 1 {
		return fmt.Errorf("-flush must be >= 1, got %d", cfg.flush)
	}
	if cfg.probeFails < 1 {
		return fmt.Errorf("-probe-fails must be >= 1, got %d", cfg.probeFails)
	}
	if cfg.probeEvery <= 0 || cfg.probeTimeout <= 0 || cfg.drainTimeout <= 0 {
		return fmt.Errorf("-probe-every, -probe-timeout and -drain-timeout must be positive")
	}
	if cfg.traceSpans < 0 {
		return fmt.Errorf("-trace-spans must be >= 0, got %d", cfg.traceSpans)
	}
	return nil
}

// coordAddrs is what serve reports on ready: the front-end's bound
// address, and the admin endpoint's when one is configured.
type coordAddrs struct {
	front string
	admin string
}

// serve runs the coordinator until stop closes, then flushes the fleet and
// prints the final answers and membership to out. The bound addresses are
// sent on ready.
func serve(cfg *config, ready chan<- coordAddrs, stop <-chan struct{}, out io.Writer) error {
	names := strings.Split(cfg.schema, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	schema, err := implicate.NewSchema(names...)
	if err != nil {
		return err
	}
	co, err := implicate.NewCoordinator(implicate.CoordinatorConfig{
		Schema:       schema,
		Statements:   cfg.queries,
		Leaves:       cfg.leafSpecs,
		FlushTuples:  cfg.flush,
		ProbeEvery:   cfg.probeEvery,
		ProbeTimeout: cfg.probeTimeout,
		ProbeFails:   cfg.probeFails,
		DrainTimeout: cfg.drainTimeout,
		TraceSpans:   cfg.traceSpans,
		Logf:         log.Printf,
	})
	if err != nil {
		return err
	}
	fe, err := implicate.ServeCoordinator(co, cfg.listen)
	if err != nil {
		co.Close()
		return err
	}
	var admin *implicate.AdminServer
	if cfg.admin != "" {
		admin, err = implicate.ServeCoordinatorAdmin(cfg.admin, co)
		if err != nil {
			fe.Close()
			co.Close()
			return err
		}
	}
	if cfg.traceSpans > 0 {
		// SIGQUIT dumps the coordinator's span ring, mirroring impserved.
		// Registering it suppresses Go's die-with-stacks default only while
		// tracing is on; SIGABRT still produces stacks.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		defer signal.Stop(quit)
		go func() {
			for range quit {
				dumpTrace(os.Stderr, co.Tracer().Snapshot())
			}
		}()
	}
	ready <- coordAddrs{front: fe.Addr(), admin: adminAddr(admin)}
	<-stop
	fe.Close()
	if admin != nil {
		admin.Close()
	}
	// Producers are cut; push every buffered tuple into the fleet so the
	// final answers cover everything acknowledged.
	if err := co.Flush(); err != nil {
		co.Close()
		return err
	}
	err = printSummary(out, co, cfg.queries)
	co.Close()
	return err
}

func adminAddr(a *implicate.AdminServer) string {
	if a == nil {
		return ""
	}
	return a.Addr
}

// dumpTrace renders the coordinator's span dump as text, one span per
// line, newest last — the same shape impserved's SIGQUIT dump has, with
// the cross-node identity appended when a span carries one.
func dumpTrace(w io.Writer, spans []implicate.TraceSpan) {
	fmt.Fprintf(w, "--- trace: %d spans ---\n", len(spans))
	for _, sp := range spans {
		fmt.Fprintf(w, "%8d %-10s arg=%-4d units=%-8d %s +%v trace=%016x id=%016x\n",
			sp.Seq, sp.Kind, sp.Arg, sp.Units,
			time.Unix(0, sp.Start).UTC().Format("15:04:05.000000"),
			time.Duration(sp.Dur).Round(time.Microsecond),
			sp.Trace, sp.ID)
	}
}

// printSummary renders the shutdown report: per-statement answers off the
// merged fleet state, then the membership view.
func printSummary(out io.Writer, co *implicate.Coordinator, queries []string) error {
	for i, sql := range queries {
		res, err := co.Query(i)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "stmt %d: %s = %.1f (%d tuples fleet-wide)\n", i, sql, res.Count, res.Tuples)
	}
	cs := co.Status()
	fmt.Fprintf(out, "fleet: %d leaves over %d bitmaps\n", len(cs.Leaves), cs.VirtualPartitions)
	for _, lf := range cs.Leaves {
		fmt.Fprintf(out, "  %s: %s epoch=%d parts=%d journaled=%d acked=%d\n",
			lf.Addr, leafStateName(lf.State), lf.Epoch, lf.Parts, lf.Journaled, lf.Acked)
	}
	return nil
}

func leafStateName(s uint8) string {
	switch s {
	case implicate.LeafDown:
		return "down"
	case implicate.LeafRecovering:
		return "recovering"
	}
	return "up"
}
