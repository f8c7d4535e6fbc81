package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"implicate/internal/experiments"
)

// experimentNames is every -exp value besides "all", which selects them
// all: the paper's tables and figures plus the design-choice ablations.
var experimentNames = []string{"fig4", "fig5", "fig6", "fig7a", "fig7b", "table3", "table4", "table5", "ablations"}

type config struct {
	exp   string
	paper bool
	runs  int
	seed  int64
	cards string
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("impbench", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.exp, "exp", "all",
		"comma-separated experiments: "+strings.Join(experimentNames, ", ")+", or all")
	fs.BoolVar(&cfg.paper, "paper", false, "use the paper's full-scale configuration")
	fs.IntVar(&cfg.runs, "runs", 0, "override repetitions per point")
	fs.Int64Var(&cfg.seed, "seed", 1, "experiment seed")
	fs.StringVar(&cfg.cards, "cards", "", "override the Dataset One |A| sweep (comma-separated)")
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
		e = strings.TrimSpace(e)
		if e != "all" && !slices.Contains(experimentNames, e) {
			return fmt.Errorf("unknown experiment %q (want %s, or all)", e, strings.Join(experimentNames, ", "))
		}
		wanted[e] = true
	}
	want := func(name string) bool { return wanted["all"] || wanted[name] }

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
		experiments.PrintTable3(w)
		fmt.Fprintln(w)
	}
	if want("table5") {
		experiments.DefaultTable5().Print(w)
		fmt.Fprintln(w)
	}
	if want("fig4") {
		if err := datasetOne("Figure 4", 1); err != nil {
			return err
		}
	}
	if want("fig5") {
		if err := datasetOne("Figure 5", 2); err != nil {
			return err
		}
	}
	if want("fig6") {
		if err := datasetOne("Figure 6", 4); err != nil {
			return err
		}
	}
	if want("table4") {
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
		if err := fig7(experiments.WorkloadA); err != nil {
			return err
		}
	}
	if want("fig7b") {
		if err := fig7(experiments.WorkloadB); err != nil {
			return err
		}
	}
	if want("ablations") {
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

	return nil
}
