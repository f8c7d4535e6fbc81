package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"implicate/internal/experiments"
)

type config struct {
	exp        string
	paper      bool
	runs       int
	seed       int64
	cards      string
	jsonOut    string
	workers    string
	procs      string
	transports string
	window     int
	leaves     int
	tenants    int
	shards     int
	gate       string
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("impbench", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.exp, "exp", "all",
		"experiment: fig4, fig5, fig6, fig7a, fig7b, table3, table4, table5, ablations, serve, obs, all")
	fs.BoolVar(&cfg.paper, "paper", false, "use the paper's full-scale configuration")
	fs.IntVar(&cfg.runs, "runs", 0, "override repetitions per point")
	fs.Int64Var(&cfg.seed, "seed", 1, "experiment seed")
	fs.StringVar(&cfg.cards, "cards", "", "override the Dataset One |A| sweep (comma-separated)")
	fs.StringVar(&cfg.jsonOut, "json", "", "also write the serve/obs rows as JSON to this file (last selected experiment wins)")
	fs.StringVar(&cfg.workers, "workers", "", "override the serve experiment's pool-size sweep (comma-separated)")
	fs.StringVar(&cfg.procs, "procs", "", "GOMAXPROCS sweep for serve/obs (comma-separated; default: current setting)")
	fs.StringVar(&cfg.transports, "transports", "", "serve experiment transports (comma-separated from tcp,udp; default both)")
	fs.IntVar(&cfg.window, "window", 0, "serve experiment per-producer pipelining window in batches (default 16)")
	fs.IntVar(&cfg.leaves, "leaves", 0, "serve/obs fleet mode: a coordinator fronting N leaf servers (serve: replaces the transport sweep; obs: adds fleet rows after the single-server pair); 0: single server")
	fs.IntVar(&cfg.tenants, "tenants", 0, "serve experiment multi-tenant rows: one server hosting N named tenants, producers pinned round-robin; 0: off")
	fs.IntVar(&cfg.shards, "dispatch-shards", 0, "serve experiment fair-dispatch shard count per lane (0: 1, the single-dispatcher path)")
	fs.StringVar(&cfg.gate, "gate", "", "compare serve throughput against this baseline JSON and fail on a >25% regression")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return cfg, nil
}

// run executes the selected experiments, writing the paper-style tables to
// w. It returns an error for unknown experiment names.
func run(cfg *config, w io.Writer) error {
	wanted := map[string]bool{}
	for _, e := range strings.Split(cfg.exp, ",") {
		wanted[strings.TrimSpace(e)] = true
	}
	want := func(name string) bool { return wanted["all"] || wanted[name] }
	ran := false

	intList := func(flagName, v string) ([]int, error) {
		if v == "" {
			return nil, nil
		}
		var out []int
		for _, s := range strings.Split(v, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("bad %s value %q", flagName, s)
			}
			out = append(out, n)
		}
		return out, nil
	}
	procs, err := intList("-procs", cfg.procs)
	if err != nil {
		return err
	}

	datasetOne := func(figure string, c int) error {
		dcfg := experiments.DatasetOneConfig{C: c, Seed: cfg.seed, Runs: cfg.runs}
		if cfg.paper {
			dcfg.Cards = []int{100, 1000, 10000, 100000}
			dcfg.Fracs = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
			if dcfg.Runs == 0 {
				dcfg.Runs = 100
			}
		} else {
			dcfg.Cards = []int{100, 1000, 10000}
			dcfg.Fracs = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
		}
		if cfg.cards != "" {
			dcfg.Cards = nil
			for _, c := range strings.Split(cfg.cards, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(c))
				if err != nil {
					return fmt.Errorf("bad -cards value %q", c)
				}
				dcfg.Cards = append(dcfg.Cards, n)
			}
		}
		if dcfg.Runs == 0 {
			dcfg.Runs = 5
		}
		start := time.Now()
		rows, err := experiments.RunDatasetOne(dcfg)
		if err != nil {
			return err
		}
		experiments.PrintDatasetOne(w, figure, c, rows)
		fmt.Fprintf(w, "(%d runs/point, %v)\n\n", dcfg.Runs, time.Since(start).Round(time.Millisecond))
		return nil
	}

	fig7 := func(wl experiments.Workload) error {
		for _, tau := range []int64{5, 50} {
			ocfg := experiments.OLAPConfig{Workload: wl, Tau: tau, Seed: cfg.seed}
			if !cfg.paper {
				ocfg.Checkpoints = []int64{134576, 672771, 1344591}
			}
			start := time.Now()
			rows, err := experiments.RunOLAP(ocfg)
			if err != nil {
				return err
			}
			experiments.PrintOLAP(w, ocfg, rows)
			fmt.Fprintf(w, "(%v)\n\n", time.Since(start).Round(time.Millisecond))
		}
		return nil
	}

	if want("table3") {
		ran = true
		experiments.PrintTable3(w)
		fmt.Fprintln(w)
	}
	if want("table5") {
		ran = true
		experiments.DefaultTable5().Print(w)
		fmt.Fprintln(w)
	}
	if want("fig4") {
		ran = true
		if err := datasetOne("Figure 4", 1); err != nil {
			return err
		}
	}
	if want("fig5") {
		ran = true
		if err := datasetOne("Figure 5", 2); err != nil {
			return err
		}
	}
	if want("fig6") {
		ran = true
		if err := datasetOne("Figure 6", 4); err != nil {
			return err
		}
	}
	if want("table4") {
		ran = true
		checkpoints := experiments.PaperCheckpoints()
		if !cfg.paper {
			checkpoints = checkpoints[:3]
		}
		start := time.Now()
		rows, err := experiments.RunTable4(checkpoints, cfg.seed)
		if err != nil {
			return err
		}
		experiments.PrintTable4(w, rows)
		fmt.Fprintf(w, "(%v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if want("fig7a") {
		ran = true
		if err := fig7(experiments.WorkloadA); err != nil {
			return err
		}
	}
	if want("fig7b") {
		ran = true
		if err := fig7(experiments.WorkloadB); err != nil {
			return err
		}
	}
	if want("ablations") {
		ran = true
		acfg := experiments.AblationConfig{Seed: cfg.seed, Runs: cfg.runs}
		if cfg.paper {
			acfg.CardA = 20000
			if acfg.Runs == 0 {
				acfg.Runs = 20
			}
		}
		if rows, err := experiments.RunFringeAblation(acfg, nil); err != nil {
			return err
		} else {
			experiments.PrintFringeAblation(w, rows)
			fmt.Fprintln(w)
		}
		if rows, err := experiments.RunBitmapAblation(acfg, nil); err != nil {
			return err
		} else {
			experiments.PrintBitmapAblation(w, rows)
			fmt.Fprintln(w)
		}
		if rows, err := experiments.RunSlackAblation(acfg, nil); err != nil {
			return err
		} else {
			experiments.PrintSlackAblation(w, rows)
			fmt.Fprintln(w)
		}
		if rows, err := experiments.RunLemma2(acfg, nil, nil); err != nil {
			return err
		} else {
			experiments.PrintLemma2(w, rows)
			fmt.Fprintln(w)
		}
		if rows, err := experiments.RunEstimatorAblation(acfg, nil); err != nil {
			return err
		} else {
			experiments.PrintEstimatorAblation(w, rows)
			fmt.Fprintln(w)
		}
	}

	if want("serve") {
		ran = true
		scfg := experiments.ServeConfig{
			Seed:           cfg.seed,
			Procs:          procs,
			Window:         cfg.window,
			Leaves:         cfg.leaves,
			Tenants:        cfg.tenants,
			DispatchShards: cfg.shards,
		}
		if cfg.paper {
			scfg.Tuples = 2_000_000
		}
		if cfg.transports != "" {
			for _, t := range strings.Split(cfg.transports, ",") {
				scfg.Transports = append(scfg.Transports, strings.TrimSpace(t))
			}
		}
		workers, err := intList("-workers", cfg.workers)
		if err != nil {
			return err
		}
		scfg.Workers = workers
		start := time.Now()
		rows, err := experiments.RunServe(scfg)
		if err != nil {
			return err
		}
		experiments.PrintServe(w, scfg, rows)
		fmt.Fprintf(w, "(%v)\n\n", time.Since(start).Round(time.Millisecond))
		if cfg.gate != "" {
			f, err := os.Open(cfg.gate)
			if err != nil {
				return err
			}
			gateErr := experiments.GateServe(f, rows, 0.25)
			f.Close()
			if gateErr != nil {
				return gateErr
			}
			fmt.Fprintf(w, "gate: within 25%% of %s\n\n", cfg.gate)
		}
		if cfg.jsonOut != "" {
			f, err := os.Create(cfg.jsonOut)
			if err != nil {
				return err
			}
			if err := experiments.WriteServeJSON(f, scfg, rows); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}

	if want("obs") {
		ran = true
		ocfg := experiments.ObsConfig{Seed: cfg.seed, Procs: procs, Leaves: cfg.leaves}
		if cfg.paper {
			ocfg.Tuples = 2_000_000
		}
		start := time.Now()
		rows, err := experiments.RunObs(ocfg)
		if err != nil {
			return err
		}
		experiments.PrintObs(w, ocfg, rows)
		fmt.Fprintf(w, "(%v)\n\n", time.Since(start).Round(time.Millisecond))
		if cfg.jsonOut != "" {
			f, err := os.Create(cfg.jsonOut)
			if err != nil {
				return err
			}
			if err := experiments.WriteObsJSON(f, ocfg, rows); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}

	if !ran {
		return fmt.Errorf("unknown experiment %q", cfg.exp)
	}
	return nil
}
