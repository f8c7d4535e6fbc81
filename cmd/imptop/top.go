package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"time"

	"implicate"
	"implicate/internal/telemetry"
)

// config carries the parsed command line.
type config struct {
	addr     string
	coord    string
	interval time.Duration
	count    int
	plain    bool
}

func parseFlags(args []string) (*config, []string, error) {
	fs := flag.NewFlagSet("imptop", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:7171", "impserved address to watch")
	fs.StringVar(&cfg.coord, "coord", "", "coordinator admin address (host:port or URL); fleet mode, overrides -addr")
	fs.DurationVar(&cfg.interval, "interval", time.Second, "poll interval")
	fs.IntVar(&cfg.count, "count", 0, "frames to render before exiting; 0: until interrupted")
	fs.BoolVar(&cfg.plain, "plain", false, "print one frame per poll instead of redrawing in place")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	return cfg, fs.Args(), nil
}

func (cfg *config) validate() error {
	if cfg.addr == "" && cfg.coord == "" {
		return fmt.Errorf("missing -addr")
	}
	if cfg.interval <= 0 {
		return fmt.Errorf("-interval must be positive, got %v", cfg.interval)
	}
	if cfg.count < 0 {
		return fmt.Errorf("-count must be >= 0, got %d", cfg.count)
	}
	return nil
}

// frame is one poll: both RPC answers plus the local receive time the rate
// math runs on.
type frame struct {
	when   time.Time
	stats  implicate.ServerStats
	health []implicate.HealthReport
}

func poll(cl *implicate.Client) (frame, error) {
	var f frame
	var err error
	if f.stats, err = cl.Stats(); err != nil {
		return frame{}, err
	}
	if f.health, err = cl.Health(); err != nil {
		return frame{}, err
	}
	f.when = time.Now()
	return f, nil
}

// run polls the server and renders frames to out until stop closes or
// cfg.count frames have been drawn. With -coord set the fleet dashboard
// takes over (fleet.go).
func run(cfg *config, out io.Writer, stop <-chan struct{}) error {
	if cfg.coord != "" {
		return runFleet(cfg, out, stop)
	}
	cl, err := implicate.Dial(cfg.addr, nil, implicate.ClientOptions{})
	if err != nil {
		return err
	}
	defer cl.Close()
	var prev *frame
	for i := 0; cfg.count == 0 || i < cfg.count; i++ {
		if i > 0 {
			select {
			case <-stop:
				return nil
			case <-time.After(cfg.interval):
			}
		}
		cur, err := poll(cl)
		if err != nil {
			return err
		}
		if !cfg.plain {
			// Home the cursor and clear what the previous frame drew.
			fmt.Fprint(out, "\x1b[H\x1b[2J")
		}
		render(out, cfg.addr, prev, cur)
		prev = &cur
	}
	return nil
}

// render draws one dashboard frame. prev is nil on the first frame, which
// reports totals only; later frames add the rates over the elapsed wall
// time between polls.
func render(w io.Writer, addr string, prev *frame, cur frame) {
	sn := cur.stats
	fmt.Fprintf(w, "imptop — %s — %s\n\n", addr, cur.when.Format("15:04:05"))

	rate := func(delta int64, dt time.Duration) string {
		if prev == nil || dt <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f/s", float64(delta)/dt.Seconds())
	}
	var dt time.Duration
	var dTuples, dBatches int64
	if prev != nil {
		dt = cur.when.Sub(prev.when)
		dTuples = sn.TuplesIngested - prev.stats.TuplesIngested
		dBatches = sn.Batches - prev.stats.Batches
	}
	fmt.Fprintf(w, "ingest   tuples=%d (%s)  batches=%d (%s)  rejected=%d  merges=%d\n",
		sn.TuplesIngested, rate(dTuples, dt), sn.Batches, rate(dBatches, dt),
		sn.BatchesRejected, sn.Merges)
	fmt.Fprintf(w, "queue    high-water=%d  pool-saturation=%d\n\n", sn.QueueHighWater, sn.PoolSaturation)

	fmt.Fprintf(w, "%-14s %10s %12s %12s\n", "rpc", "count", "p50", "p99")
	for r := telemetry.RPC(0); r < telemetry.NumRPCs; r++ {
		h := sn.Latency[r]
		if h.Count() == 0 {
			continue
		}
		fmt.Fprintf(w, "%-14s %10d %12v %12v\n", r, h.Count(),
			h.Quantile(0.50).Round(time.Microsecond), h.Quantile(0.99).Round(time.Microsecond))
	}

	if len(sn.Workers) > 0 {
		var total int64
		for _, ws := range sn.Workers {
			total += ws.Units
		}
		mean := float64(total) / float64(len(sn.Workers))
		fmt.Fprintf(w, "\n%-8s %12s %12s %8s\n", "worker", "tasks", "units", "skew")
		for i, ws := range sn.Workers {
			skew := "-"
			if mean > 0 {
				skew = fmt.Sprintf("%.2f", float64(ws.Units)/mean)
			}
			fmt.Fprintf(w, "%-8d %12d %12d %8s\n", i, ws.Tasks, ws.Units, skew)
		}
	}

	fmt.Fprintf(w, "\n%-5s %-14s %10s %9s %9s %6s %6s %8s %7s %8s\n",
		"stmt", "kind", "tuples", "entries", "mem", "fill", "lz", "fringe", "evict", "relerr")
	for _, h := range cur.health {
		kind := h.Kind
		if h.Shared {
			kind += "*"
		}
		fmt.Fprintf(w, "%-5d %-14s %10d %9d %9s %6s %6.1f %8d %7d %8s\n",
			h.Stmt, kind, h.Tuples, h.MemEntries, sizeOf(h.MemBytes),
			pct(h.BitmapFill), h.LeftmostZero, h.FringeTracked, h.FringeEvictions,
			relErr(h.RelErr))
	}
	if hasShared(cur.health) {
		fmt.Fprintf(w, "(* reads a shared estimator owned by an earlier statement)\n")
	}
}

func hasShared(health []implicate.HealthReport) bool {
	for _, h := range health {
		if h.Shared {
			return true
		}
	}
	return false
}

// pct renders a [0,1] fraction as a percentage.
func pct(v float64) string {
	return fmt.Sprintf("%.1f%%", 100*v)
}

// relErr renders the self-assessed relative error; an estimator that
// cannot bound it (empty, or exact with nothing to misestimate) shows "-".
func relErr(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

// sizeOf renders a byte count with a binary unit.
func sizeOf(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
