package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"time"
)

// processStart anchors the first set-up: process start to timed region.
var processStart = time.Now()

// sizes are the run's dimensions; everything but the region length is a
// constant of the benchmark.
type sizes struct {
	pass       int           // tuples in one pass of Dataset One
	setups     int           // set-ups per run; setup_s reports their median
	warmup     time.Duration // untimed stretch of each set-up
	region     time.Duration // length of the timed region
	queryEvery time.Duration // the querier's think time between queries
	countEvery int           // lib_sketch reads Count() after every Nth batch
	replayN    int           // batches walked by the stage replay
}

func fullSizes(seconds int) sizes {
	return sizes{pass: 2_000_000, setups: 3, warmup: 800 * time.Millisecond,
		region:     time.Duration(seconds) * time.Second,
		queryEvery: 10 * time.Millisecond, countEvery: 50, replayN: 2000}
}

// quickSizes is for tests only, never for reported numbers: a tiny pass,
// one set-up, and queries back to back so that a one-second region still
// collects enough samples for a p90.
func quickSizes() sizes {
	return sizes{pass: 60_000, setups: 1, warmup: 20 * time.Millisecond,
		region:     time.Second,
		queryEvery: 0, countEvery: 2, replayN: 60}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line. A failed check or a
// failed operation aborts the run with a non-zero exit and no result, so a
// printed result is always correct with nothing failed.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setUp builds the inputs, boots the system, verifies it and warms it up:
// everything between process start and the timed region.
func setUp(sp spec, seed int64, sz sizes, log io.Writer) (*rig, error) {
	t0 := time.Now()
	in, err := newInputs(seed, sz.pass, sp.batch, producerCount(), sp.kind != kindLib)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	r, err := boot(sp, in, sz)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	err = r.verify()
	t3 := time.Now()
	if err == nil {
		err = r.warmup(sz.warmup)
	}
	fmt.Fprintf(log, "set-up phases: inputs %.3fs, boot %.3fs, verify %.3fs, warm-up %.3fs\n",
		t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), time.Since(t3).Seconds())
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// setUpRepeated sets the system up sz.setups times and keeps the last one.
// Each set-up does identical work from identical inputs, so it must verify
// to identical figures; the median duration is the run's setup_s.
func setUpRepeated(sp spec, seed int64, sz sizes, log io.Writer) (*rig, float64, error) {
	var prev *rig
	var times []float64
	start := processStart
	for i := 0; i < sz.setups; i++ {
		r, err := setUp(sp, seed, sz, log)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if prev != nil {
			if r.v != prev.v {
				r.close()
				return nil, 0, fmt.Errorf("set-up %d verified to %+v, set-up %d to %+v: same seed, different state", i+1, r.v, i, prev.v)
			}
			r.ops += prev.ops
		}
		if prev = r; i+1 < sz.setups {
			if err := r.close(); err != nil {
				return nil, 0, err
			}
			start = time.Now()
		}
	}
	fmt.Fprintf(log, "set-up: %d runs, seconds %.3f, median %.3f\n", len(times), times, median(times))
	return prev, median(times), nil
}

// endToEnd turns a region into the eight end-to-end metrics.
func endToEnd(setupS float64, v verified, reg *region, log io.Writer) (map[string]metric, error) {
	var rates, cpus []float64
	for _, s := range reg.Segs {
		rates = append(rates, s.tuplesPerSec())
		cpus = append(cpus, s.cpuNsPerTuple())
	}
	q := append([]float64(nil), reg.QueryMs...)
	sort.Float64s(q)
	p50, err := percentile(q, 0.50)
	if err != nil {
		return nil, fmt.Errorf("query latency: %w", err)
	}
	p90, err := percentile(q, 0.90)
	if err != nil {
		return nil, fmt.Errorf("query latency: %w", err)
	}
	fmt.Fprintf(log, "tuples_per_s: segments %.0f, median %.0f, MAD %.0f, min %.0f\n", rates, median(rates), mad(rates), slices.Min(rates))
	fmt.Fprintf(log, "cpu_ns_per_tuple: segments %.2f, median %.2f, MAD %.2f, min %.2f\n", cpus, median(cpus), mad(cpus), slices.Min(cpus))
	fmt.Fprintf(log, "query latency: %d samples, p50 %.4f ms, p90 %.4f ms\n", len(q), p50, p90)
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"tuples_per_s":     {median(rates), "tuples/s"},
		"cpu_ns_per_tuple": {median(cpus), "ns"},
		"query_p50_ms":     {p50, "ms"},
		"query_p90_ms":     {p90, "ms"},
		"accuracy":         {1 - v.RelErr, "ratio"},
		"mem_entries":      {float64(v.MemEntries), "entries"},
		"state_bytes":      {float64(v.StateBytes), "bytes"},
	}, nil
}

// runWorkload is one run of one workload in this process.
func runWorkload(sp spec, seed int64, sz sizes, traced bool, spanPath string, log io.Writer) (result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	if traced {
		sz.setups = 1
	}
	r, setupS, err := setUpRepeated(sp, seed, sz, log)
	if err != nil {
		return result{}, err
	}
	defer r.close()
	fmt.Fprintf(log, "verified: estimate %.1f, exact %.0f, relerr %.6f, mem_entries %d, state_bytes %d\n",
		r.v.Estimate, r.in.exact, r.v.RelErr, r.v.MemEntries, r.v.StateBytes)
	var metrics map[string]metric
	if traced {
		metrics, err = r.tracedRun(spanPath, log)
	} else {
		var reg *region
		if reg, err = r.runRegion(sz.region, segments, nil, nil); err == nil {
			metrics, err = endToEnd(setupS, r.v, reg, log)
		}
	}
	if err != nil {
		return result{}, err
	}
	if err := r.close(); err != nil {
		return result{}, fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintf(log, "peak rss: %d MiB\n", peakRSSMiB())
	return result{Correct: true, Attempted: r.ops, Metrics: metrics}, nil
}
