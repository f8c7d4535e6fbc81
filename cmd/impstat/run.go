package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"implicate"
	"implicate/cmd/internal/backends"
	"implicate/internal/stream"
)

// config carries the parsed command line.
type config struct {
	sql      string
	backend  string
	interval int64
	seed     uint64

	checkpoint string
	every      int64
	resume     string
}

func parseFlags(args []string) (*config, []string, error) {
	fs := flag.NewFlagSet("impstat", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.sql, "q", "", "implication query (required unless -resume)")
	fs.StringVar(&cfg.backend, "backend", "nips", "estimator backend: nips, exact, or all")
	fs.Int64Var(&cfg.interval, "interval", 0, "print counts every N tuples (0: only at the end)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "sketch seed")
	fs.StringVar(&cfg.checkpoint, "checkpoint", "", "write crash-recovery checkpoints to this file")
	fs.Int64Var(&cfg.every, "every", 0, "checkpoint every N tuples (with -checkpoint; 0: only at the end)")
	fs.StringVar(&cfg.resume, "resume", "", "restore engine state from this checkpoint file and replay the stream from its offset")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	return cfg, fs.Args(), nil
}

// validate rejects flag combinations that would otherwise be silently
// ignored or fail with a confusing late error.
func (cfg *config) validate() error {
	if cfg.every < 0 {
		return fmt.Errorf("-every must be >= 0, got %d", cfg.every)
	}
	if cfg.every > 0 && cfg.checkpoint == "" {
		return fmt.Errorf("-every %d has no effect without -checkpoint; add -checkpoint FILE or drop -every", cfg.every)
	}
	if cfg.interval < 0 {
		return fmt.Errorf("-interval must be >= 0, got %d", cfg.interval)
	}
	if cfg.resume != "" {
		if cfg.sql != "" {
			return fmt.Errorf("-resume restores the queries from the checkpoint; drop -q")
		}
		if _, err := os.Stat(cfg.resume); err != nil {
			return fmt.Errorf("cannot resume: %w", err)
		}
	}
	return nil
}

// namedStmt pairs a registered statement with its report label.
type namedStmt struct {
	name string
	st   *implicate.Statement
}

// setup builds the engine — fresh from -q, or restored from -resume — and
// returns it with the statements to report and the stream offset to skip.
func setup(cfg *config, schema *stream.Schema) (*implicate.Engine, []namedStmt, int64, error) {
	factories := backends.Table(cfg.seed)

	if cfg.resume != "" {
		if cfg.sql != "" {
			return nil, nil, 0, fmt.Errorf("-resume restores the queries from the checkpoint; drop -q")
		}
		snap, err := implicate.ReadCheckpoint(cfg.resume)
		if err != nil {
			return nil, nil, 0, err
		}
		resolve := func(q implicate.Query, kind string) (implicate.Backend, error) {
			b, ok := factories[kind]
			if !ok {
				return nil, fmt.Errorf("checkpoint needs a %q backend, which impstat cannot build", kind)
			}
			return b, nil
		}
		eng, err := implicate.RestoreCheckpoint(snap, schema, resolve)
		if err != nil {
			return nil, nil, 0, err
		}
		var stmts []namedStmt
		for _, st := range eng.Statements() {
			// Label a restored statement with the backend that builds its
			// kind at every stripe count.
			name := st.EstimatorKind()
			if name == "sharded" {
				name = "nips"
			}
			stmts = append(stmts, namedStmt{name: name, st: st})
		}
		return eng, stmts, snap.Offset, nil
	}

	if cfg.sql == "" {
		return nil, nil, 0, fmt.Errorf("missing -q query")
	}
	names := []string{cfg.backend}
	if cfg.backend == "all" {
		names = []string{"nips", "exact"}
	}
	eng := implicate.NewEngine(schema)
	var stmts []namedStmt
	for _, name := range names {
		backend, ok := factories[name]
		if !ok {
			return nil, nil, 0, fmt.Errorf("unknown backend %q", cfg.backend)
		}
		st, err := eng.RegisterSQL(cfg.sql, backend)
		if err != nil {
			return nil, nil, 0, err
		}
		stmts = append(stmts, namedStmt{name: name, st: st})
	}
	return eng, stmts, 0, nil
}

// run executes the query over the stream and writes reports to out.
func run(cfg *config, in io.Reader, out io.Writer) error {
	r, schema, err := stream.OpenReader(in)
	if err != nil {
		return err
	}

	eng, stmts, offset, err := setup(cfg, schema)
	if err != nil {
		return err
	}
	tuples := offset
	if offset > 0 {
		res, ok := r.(stream.Resumable)
		if !ok {
			return fmt.Errorf("stream source cannot seek to checkpoint offset %d", offset)
		}
		if err := res.SkipTuples(offset); err != nil {
			return fmt.Errorf("replaying to checkpoint offset: %w", err)
		}
	}

	periodic := &implicate.PeriodicCheckpoint{Path: cfg.checkpoint, Every: cfg.every}
	if cfg.checkpoint == "" {
		periodic.Every = 0
	}
	periodic.SkipTo(offset)
	checkpointMaybe := func() error {
		_, err := periodic.Maybe(eng, tuples)
		return err
	}

	report := func() {
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "tuples=%d", tuples)
		for _, ns := range stmts {
			fmt.Fprintf(tw, "\t%s=%.1f (mem %d)", ns.name, ns.st.Count(), ns.st.Estimator().MemEntries())
		}
		fmt.Fprintln(tw)
		tw.Flush()
	}

	finish := func() error {
		report()
		if cfg.checkpoint != "" {
			snap, err := implicate.CaptureCheckpoint(eng, tuples)
			if err != nil {
				return err
			}
			return implicate.WriteCheckpoint(cfg.checkpoint, snap)
		}
		return nil
	}

	if bs, ok := r.(stream.BatchSource); ok {
		// Binary inputs decode in batches: one string allocation per read
		// window and one engine dispatch per batch instead of per tuple.
		// Batches are clipped to the reporting interval so -interval output
		// is unchanged, and to the checkpoint interval so -every is honored
		// exactly.
		batch := make([]stream.Tuple, 256)
		for {
			want := int64(len(batch))
			if cfg.interval > 0 {
				if rem := cfg.interval - tuples%cfg.interval; rem < want {
					want = rem
				}
			}
			if cfg.every > 0 {
				if rem := cfg.every - tuples%cfg.every; rem < want {
					want = rem
				}
			}
			n, err := bs.NextBatch(batch[:want])
			if n > 0 {
				eng.ProcessBatch(batch[:n])
				tuples += int64(n)
				if cfg.interval > 0 && tuples%cfg.interval == 0 {
					report()
				}
				if err := checkpointMaybe(); err != nil {
					return err
				}
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
		}
		return finish()
	}
	for {
		t, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		eng.Process(t)
		tuples++
		if cfg.interval > 0 && tuples%cfg.interval == 0 {
			report()
		}
		if err := checkpointMaybe(); err != nil {
			return err
		}
	}
	return finish()
}
