package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"text/tabwriter"
	"time"

	"implicate/internal/obs"
	"implicate/internal/telemetry"
)

// layerMetric declares one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
}

// layerMetrics is every per-layer metric, in BENCHMARK.json's order. A
// traced run reports all of them; a layer that is not on the workload's
// path reports 0.
var layerMetrics = []layerMetric{
	{"stream.project_ns_per_tuple", "ns", "lower"},
	{"xhash.sum_ns_per_tuple", "ns", "lower"},
	{"core.add_ns_per_tuple", "ns", "lower"},
	{"query.process_ns_per_tuple", "ns", "lower"},
	{"client.encode_ns_per_tuple", "ns", "lower"},
	{"stream.decode_ns_per_tuple", "ns", "lower"},
	{"stream.decode_allocs_per_batch", "allocs", "lower"},
	{"proto.frame_write_ns_per_batch", "ns", "lower"},
	{"proto.frame_read_ns_per_batch", "ns", "lower"},
	{"proto.ack_encode_ns_per_batch", "ns", "lower"},
	{"pipeline.plan_ns_per_tuple", "ns", "lower"},
	{"pipeline.plan_allocs_per_batch", "allocs", "lower"},
	{"pipeline.dispatch_apply_ns_per_tuple", "ns", "lower"},
	{"query.count_ns", "ns", "lower"},
	{"core.marshal_ns", "ns", "lower"},
	{"core.unmarshal_ns", "ns", "lower"},
	{"core.merge_ns", "ns", "lower"},
	{"core.relerr", "ratio", "lower"},
	{"coord.ingest_ns_per_tuple", "ns", "lower"},
	{"coord.query_ms", "ms", "lower"},
	{"client.send_ms_p50", "ms", "lower"},
	{"client.ack_wait_ms_p50", "ms", "lower"},
	{"client.ack_wait_ms_p90", "ms", "lower"},
	{"server.queue_high_water", "count", "lower"},
	{"server.batches_rejected", "count", "lower"},
	{"server.rpc_ingest_ms_p50", "ms", "lower"},
	{"server.rpc_query_ms_p50", "ms", "lower"},
	{"pipeline.pool_saturation", "count", "lower"},
	{"pipeline.worker_skew", "ratio", "lower"},
	{"coord.journal_pending_max", "tuples", "lower"},
	{"coord.replays", "count", "lower"},
	{"coord.deliver_ms_p50", "ms", "lower"},
	{"coord.leaf_skew", "ratio", "lower"},
	{"runtime.allocs_per_batch", "allocs", "lower"},
	{"runtime.alloc_bytes_per_batch", "bytes", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms_total", "ms", "lower"},
	{"runtime.heap_inuse_mb_peak", "MiB", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"trace.replay_coverage", "ratio", "higher"},
}

// counters is one reading of every live counter the system exposes through
// public accessors.
type counters struct {
	mem     runtime.MemStats
	servers []telemetry.Snapshot // one per leaf-level server
	fleet   []obs.LeafTelemetry
}

func (r *rig) readCounters() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	for _, srv := range r.servers() {
		c.servers = append(c.servers, srv.Telemetry().Snapshot())
	}
	if r.co != nil {
		c.fleet = r.co.FleetTelemetry()
	}
	return c
}

// sampler polls, every 100 ms of the live region, the gauges that have no
// high-water counter of their own.
type sampler struct {
	stop           chan struct{}
	done           chan struct{}
	journalPending int64
	heapInuse      uint64
}

func (r *rig) startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			metrics.Read(sample)
			s.heapInuse = max(s.heapInuse, sample[0].Value.Uint64()+sample[1].Value.Uint64())
			if r.co != nil {
				for _, row := range r.co.FleetTelemetry() {
					s.journalPending = max(s.journalPending, row.PendingTuples)
				}
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// histDelta subtracts two cumulative histograms.
func histDelta(after, before telemetry.Histogram) telemetry.Histogram {
	for i := range after.Counts {
		after.Counts[i] -= before.Counts[i]
	}
	return after
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// pctOrZero is percentile for layer metrics, which must always report a
// number: a tail too thin to read reports 0.
func pctOrZero(vals []float64, q float64) float64 {
	sort.Float64s(vals)
	v, err := percentile(vals, q)
	if err != nil {
		return 0
	}
	return v
}

func ratioMaxMean(vals []float64) float64 {
	var sum, hi float64
	for _, v := range vals {
		sum += v
		hi = max(hi, v)
	}
	if sum == 0 {
		return 0
	}
	return hi / (sum / float64(len(vals)))
}

// liveLayers turns the live region's spans and counter deltas into layer
// metrics.
func liveLayers(m map[string]float64, reg *region, before, after counters, smp *sampler) {
	durs := map[string][]float64{}
	for _, s := range reg.Spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e6)
	}
	m["client.send_ms_p50"] = pctOrZero(durs["client.send"], 0.50)
	m["client.ack_wait_ms_p50"] = pctOrZero(durs["client.ack_wait"], 0.50)
	m["client.ack_wait_ms_p90"] = pctOrZero(durs["client.ack_wait"], 0.90)

	var ingest, query telemetry.Histogram
	var workerUnits []float64
	for i, a := range after.servers {
		b := before.servers[i]
		m["server.queue_high_water"] = max(m["server.queue_high_water"], float64(a.QueueHighWater))
		m["server.batches_rejected"] += float64(a.BatchesRejected - b.BatchesRejected)
		m["pipeline.pool_saturation"] += float64(a.PoolSaturation - b.PoolSaturation)
		di := histDelta(a.Latency[telemetry.RPCIngest], b.Latency[telemetry.RPCIngest])
		dq := histDelta(a.Latency[telemetry.RPCQuery], b.Latency[telemetry.RPCQuery])
		for k := range ingest.Counts {
			ingest.Counts[k] += di.Counts[k]
			query.Counts[k] += dq.Counts[k]
		}
		for w := range a.Workers {
			workerUnits = append(workerUnits, float64(a.Workers[w].Units-b.Workers[w].Units))
		}
	}
	m["server.rpc_ingest_ms_p50"] = ms(ingest.Quantile(0.5))
	m["server.rpc_query_ms_p50"] = ms(query.Quantile(0.5))
	m["pipeline.worker_skew"] = ratioMaxMean(workerUnits)

	var delivery telemetry.Histogram
	var journaled []float64
	for i, a := range after.fleet {
		b := before.fleet[i]
		m["coord.replays"] += float64(a.Replayed - b.Replayed)
		d := histDelta(a.Delivery, b.Delivery)
		for k := range delivery.Counts {
			delivery.Counts[k] += d.Counts[k]
		}
		journaled = append(journaled, float64(a.JournalTuples-b.JournalTuples))
	}
	m["coord.deliver_ms_p50"] = ms(delivery.Quantile(0.5))
	m["coord.leaf_skew"] = ratioMaxMean(journaled)
	m["coord.journal_pending_max"] = float64(smp.journalPending)

	batches := float64(max(reg.Batches, 1))
	m["runtime.allocs_per_batch"] = float64(after.mem.Mallocs-before.mem.Mallocs) / batches
	m["runtime.alloc_bytes_per_batch"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / batches
	m["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	m["runtime.gc_pause_ms_total"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	m["runtime.heap_inuse_mb_peak"] = float64(smp.heapInuse) / (1 << 20)
}

// replayLayers turns the replay's per-stage figures into layer metrics and
// returns the stages' summed time per tuple along the workload's path.
func replayLayers(m map[string]float64, k kind, st map[string]stageStat) (pathNsPerTuple float64) {
	perTuple := func(stage string) float64 { return st[stage].nsPerTuple() }
	m["stream.project_ns_per_tuple"] = perTuple("stream.project")
	m["xhash.sum_ns_per_tuple"] = perTuple("xhash.sum")
	m["core.add_ns_per_tuple"] = perTuple("core.add")
	m["query.process_ns_per_tuple"] = perTuple("query.process")
	m["client.encode_ns_per_tuple"] = perTuple("client.encode")
	m["stream.decode_ns_per_tuple"] = perTuple("stream.decode")
	m["stream.decode_allocs_per_batch"] = st["stream.decode"].Allocs
	m["proto.frame_write_ns_per_batch"] = st["proto.frame_write"].nsPerCall()
	m["proto.frame_read_ns_per_batch"] = st["proto.frame_read"].nsPerCall()
	m["proto.ack_encode_ns_per_batch"] = st["proto.ack_encode"].nsPerCall()
	m["pipeline.plan_ns_per_tuple"] = perTuple("pipeline.plan")
	m["pipeline.plan_allocs_per_batch"] = st["pipeline.plan"].Allocs
	m["pipeline.dispatch_apply_ns_per_tuple"] = perTuple("pipeline.dispatch_apply")
	m["query.count_ns"] = st["query.count"].nsPerCall()
	m["core.marshal_ns"] = st["core.marshal"].nsPerCall()
	m["core.unmarshal_ns"] = st["core.unmarshal"].nsPerCall()
	m["core.merge_ns"] = st["core.merge"].nsPerCall()
	m["coord.ingest_ns_per_tuple"] = perTuple("coord.ingest")
	m["coord.query_ms"] = st["coord.query"].nsPerCall() / 1e6

	// The CPU a tuple costs along the live path, stage by stage. Plan
	// contains projection and hashing and query.process contains all of the
	// per-tuple work, so those are not added again. core.add stands for the
	// apply: dispatch_apply is wall time on one goroutine and includes the
	// hand-off to the workers and the fence, which the live pipeline
	// overlaps with other batches.
	wire := []string{"proto.frame_write", "proto.frame_read", "stream.decode", "pipeline.plan", "core.add", "proto.ack_encode"}
	switch k {
	case kindLib:
		return perTuple("query.process")
	case kindFleet:
		// Front-end hop, then the leaf hop of the same shape.
		pathNsPerTuple = perTuple("proto.frame_read") + perTuple("coord.ingest")
	}
	for _, s := range wire {
		pathNsPerTuple += perTuple(s)
	}
	return pathNsPerTuple
}

// tracedRun is the traced invocation: a live region whose odd segments
// record client-side spans (the even ones give the untraced rate the
// overhead is measured against), then the stage replay. It reports every
// per-layer metric and writes the spans when it ends.
func (r *rig) tracedRun(spanPath string, log io.Writer) (map[string]metric, error) {
	tr := newTrace()
	before := r.readCounters()
	smp := r.startSampler()
	reg, err := r.runRegion(r.sz.region, 6, tr, func(i int) bool { return i%2 == 1 })
	smp.finish()
	after := r.readCounters()
	if err != nil {
		return nil, err
	}
	var plain, traced, cpu []float64
	for _, s := range reg.Segs {
		if s.Traced {
			traced = append(traced, s.tuplesPerSec())
		} else {
			plain = append(plain, s.tuplesPerSec())
			cpu = append(cpu, s.cpuNsPerTuple())
		}
	}

	m := make(map[string]float64, len(layerMetrics))
	liveLayers(m, reg, before, after, smp)
	m["core.relerr"] = r.v.RelErr
	m["trace.overhead_share"] = 1 - median(traced)/median(plain)

	rsb := tr.buf()
	stages, err := r.replay(r.sz.replayN, rsb)
	if err != nil {
		return nil, err
	}
	path := replayLayers(m, r.sp.kind, stages)
	m["trace.replay_coverage"] = path / median(cpu)

	spans := append(reg.Spans, rsb.spans...)
	if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
		return nil, err
	}
	if err := writeTrace(spanPath, traceFile{Workload: r.sp.name, Env: environment(r.in.seed), BatchTuples: r.sp.batch, Spans: spans}); err != nil {
		return nil, err
	}

	fmt.Fprintf(log, "live: untraced %.0f tuples/s (cpu %.2f ns/tuple), traced %.0f tuples/s, %d spans written to %s\n",
		median(plain), median(cpu), median(traced), len(spans), spanPath)
	printStages(log, stages)
	fmt.Fprintf(log, "reconciliation: replay stages on the path sum to %.2f ns/tuple, live cpu is %.2f ns/tuple (coverage %.2f); live allocs %.1f/batch\n",
		path, median(cpu), m["trace.replay_coverage"], m["runtime.allocs_per_batch"])
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm.name] = metric{m[lm.name], lm.unit}
	}
	return out, nil
}

// printStages writes the replay's per-stage table.
func printStages(w io.Writer, stages map[string]stageStat) {
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stage\tcalls\tself ns/call\tself ns/tuple\tallocs/call")
	for _, name := range names {
		s := stages[name]
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.2f\t%.2f\n", name, s.Calls, s.nsPerCall(), s.nsPerTuple(), s.Allocs)
	}
	tw.Flush()
}

// summarize prints the per-stage table of a span file: self time per span
// name, which is all a reader needs to attribute a batch's time.
func summarize(w io.Writer, path string) error {
	tf, err := readTrace(path)
	if err != nil {
		return err
	}
	stamp := tf.Env
	fmt.Fprintf(w, "%s: %d spans (nproc %d, GOMAXPROCS %d, %s, commit %s, kernel %s, seed %d)\n",
		tf.Workload, len(tf.Spans), stamp.NProc, stamp.GOMAXPROCS, stamp.GoVersion, stamp.Commit, stamp.Kernel, stamp.Seed)
	stats := make(map[string]stageStat)
	for name, s := range selfTimes(tf.Spans) {
		stats[name] = stageStat{Calls: s.Count, SelfNs: s.SelfNs, Tuples: int64(s.Count) * int64(tf.BatchTuples)}
	}
	printStages(w, stats)
	return nil
}
