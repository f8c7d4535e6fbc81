package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// e2eMetric declares one end-to-end metric. bound is the share of the
// parent's median by which it may worsen, and also the agreement bound
// between two runs of the same code.
type e2eMetric struct {
	name, unit, better string
	bound              float64
}

// endToEndMetrics is every end-to-end metric, in BENCHMARK.json's order;
// every workload reports all of them.
var endToEndMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"tuples_per_s", "tuples/s", "higher", 0.20},
	{"cpu_ns_per_tuple", "ns", "lower", 0.20},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p90_ms", "ms", "lower", 0.25},
	{"accuracy", "ratio", "higher", 0.10},
	{"mem_entries", "entries", "lower", 0.25},
	{"state_bytes", "bytes", "lower", 0.25},
}

// runChild runs one workload in a fresh child process, echoes its output,
// and returns the result printed on its last line.
func runChild(name string, seed int64, seconds int, traced, quick bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for _, l := range lines[:len(lines)-1] {
		fmt.Printf("  %s| %s\n", name, l)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", name, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s: result is not correct (%d of %d operations failed)", name, res.Failed, res.Attempted)
	}
	return res, nil
}

// printTable prints one row per metric and one column per workload.
func printTable(names []string, results map[string]result) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "metric\tunit")
	for _, sp := range specs {
		fmt.Fprintf(tw, "\t%s", sp.name)
	}
	fmt.Fprintln(tw)
	for _, name := range names {
		fmt.Fprintf(tw, "%s\t%s", name, results[specs[0].name].Metrics[name].Unit)
		for _, sp := range specs {
			fmt.Fprintf(tw, "\t%.6g", results[sp.name].Metrics[name].Value)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "attempted\tops")
	for _, sp := range specs {
		fmt.Fprintf(tw, "\t%d", results[sp.name].Attempted)
	}
	fmt.Fprint(tw, "\nfailed\tops")
	for _, sp := range specs {
		fmt.Fprintf(tw, "\t%d", results[sp.name].Failed)
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

// suite runs every workload, each in a fresh child process, and prints every
// metric by name with its unit. With traced it adds the traced invocation
// and the per-layer table; end-to-end numbers always come from the untraced
// run.
func suite(seed int64, seconds int, traced, quick bool) error {
	var e2e, layers []string
	for _, m := range endToEndMetrics {
		e2e = append(e2e, m.name)
	}
	for _, m := range layerMetrics {
		layers = append(layers, m.name)
	}
	plain := make(map[string]result)
	for _, sp := range specs {
		res, err := runChild(sp.name, seed, seconds, false, quick)
		if err != nil {
			return err
		}
		plain[sp.name] = res
	}
	fmt.Println("end-to-end metrics (untraced run):")
	printTable(e2e, plain)
	if !traced {
		return nil
	}
	tr := make(map[string]result)
	for _, sp := range specs {
		res, err := runChild(sp.name, seed, seconds, true, quick)
		if err != nil {
			return err
		}
		tr[sp.name] = res
	}
	fmt.Println("per-layer metrics (traced run; 0 = layer not on the workload's path):")
	printTable(layers, tr)
	return nil
}

// selfcheck runs the untraced suite twice on the same tree, the second time
// in the opposite workload order, and fails if any end-to-end metric's two
// values differ by more than its bound.
func selfcheck(seed int64, seconds int, quick bool) error {
	var sets [2]map[string]result
	for pass := range sets {
		sets[pass] = make(map[string]result)
		for i := range specs {
			sp := specs[i]
			if pass == 1 {
				sp = specs[len(specs)-1-i]
			}
			res, err := runChild(sp.name, seed, seconds, false, quick)
			if err != nil {
				return err
			}
			sets[pass][sp.name] = res
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\trun 1\trun 2\tgap\tbound\t")
	failed := 0
	for _, sp := range specs {
		for _, m := range endToEndMetrics {
			a, b := sets[0][sp.name].Metrics[m.name].Value, sets[1][sp.name].Metrics[m.name].Value
			gap := math.Abs(a-b) / math.Abs(a)
			verdict := ""
			if !(gap <= m.bound) {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t%.3f\t%s\n", sp.name, m.name, m.unit, a, b, gap, m.bound, verdict)
		}
	}
	tw.Flush()
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d (workload, metric) pairs disagree by more than their bound", failed)
	}
	return nil
}
