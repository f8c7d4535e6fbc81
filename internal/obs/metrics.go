package obs

import (
	"fmt"
	"io"
	"strconv"

	"implicate/internal/imps"
	"implicate/internal/telemetry"
)

// quantiles are the per-RPC latency quantiles /metrics exports; the same
// two imptop renders.
var quantiles = []float64{0.5, 0.99}

// WriteMetrics renders a telemetry snapshot plus the engine's health
// reports in the Prometheus text exposition format. The name mapping is
// documented in DESIGN.md §10; everything is written by hand because the
// admin endpoint must not pull a client library into a stdlib-only build.
// Returns the first write error (an aborted scrape, typically).
func WriteMetrics(w io.Writer, sn telemetry.Snapshot, health []imps.HealthReport) error {
	mw := &metricsWriter{w: w}

	mw.counter("imps_tuples_ingested_total", "Tuples applied to the engine.", sn.TuplesIngested)
	mw.counter("imps_batches_total", "Batches accepted into the ingest queue.", sn.Batches)
	mw.counter("imps_batches_rejected_total", "Batches refused with a backpressure reply.", sn.BatchesRejected)
	mw.counter("imps_merges_total", "Remote sketches merged in via SnapshotMerge.", sn.Merges)
	mw.gauge("imps_queue_high_water", "Deepest the ingest queue has been.", float64(sn.QueueHighWater))
	mw.counter("imps_pool_saturation_total", "Dispatches that found a pipeline worker queue full and blocked.", sn.PoolSaturation)

	mw.help("imps_worker_tasks_total", "Pipeline tasks applied, per worker.", "counter")
	for i, ws := range sn.Workers {
		mw.series("imps_worker_tasks_total", fmt.Sprintf(`worker="%d"`, i), float64(ws.Tasks))
	}
	mw.help("imps_worker_units_total", "Work units (tuples or planned pairs) applied, per worker.", "counter")
	for i, ws := range sn.Workers {
		mw.series("imps_worker_units_total", fmt.Sprintf(`worker="%d"`, i), float64(ws.Units))
	}

	mw.help("imps_rpc_requests_total", "Requests handled, per RPC.", "counter")
	for r := telemetry.RPC(0); r < telemetry.NumRPCs; r++ {
		mw.series("imps_rpc_requests_total", fmt.Sprintf(`rpc="%s"`, r), float64(sn.Latency[r].Count()))
	}
	mw.help("imps_rpc_latency_seconds", "Handling latency quantile upper bounds, per RPC (log2 buckets).", "summary")
	for r := telemetry.RPC(0); r < telemetry.NumRPCs; r++ {
		if sn.Latency[r].Count() == 0 {
			continue
		}
		for _, q := range quantiles {
			mw.series("imps_rpc_latency_seconds",
				fmt.Sprintf(`rpc="%s",quantile="%s"`, r, strconv.FormatFloat(q, 'g', -1, 64)),
				sn.Latency[r].Quantile(q).Seconds())
		}
	}

	stmtGauges := []struct {
		name, help string
		typ        string
		value      func(h *imps.HealthReport) float64
	}{
		{"imps_stmt_tuples_total", "Tuples observed by the statement's estimator.", "counter",
			func(h *imps.HealthReport) float64 { return float64(h.Tuples) }},
		{"imps_stmt_mem_entries", "Live counter entries held by the estimator.", "gauge",
			func(h *imps.HealthReport) float64 { return float64(h.MemEntries) }},
		{"imps_stmt_mem_bytes", "Estimated heap bytes held by the estimator.", "gauge",
			func(h *imps.HealthReport) float64 { return float64(h.MemBytes) }},
		{"imps_stmt_bitmap_fill", "Fill fraction of the estimator's bounded structure (bitmap cells set, or budget used).", "gauge",
			func(h *imps.HealthReport) float64 { return h.BitmapFill }},
		{"imps_stmt_leftmost_zero", "Mean leftmost-zero position over the sketch's bitmaps.", "gauge",
			func(h *imps.HealthReport) float64 { return h.LeftmostZero }},
		{"imps_stmt_fringe_tracked", "A-itemsets tracked in fringe or support-only cells.", "gauge",
			func(h *imps.HealthReport) float64 { return float64(h.FringeTracked) }},
		{"imps_stmt_fringe_pairs", "Live (a,b) pair counters.", "gauge",
			func(h *imps.HealthReport) float64 { return float64(h.FringePairs) }},
		{"imps_stmt_fringe_tombstones", "Excluded-itemset markers held in live cells.", "gauge",
			func(h *imps.HealthReport) float64 { return float64(h.FringeTombstones) }},
		{"imps_stmt_fringe_evictions_total", "Cells permanently retired from tracking (overflowed or pushed out).", "counter",
			func(h *imps.HealthReport) float64 { return float64(h.FringeEvictions) }},
		{"imps_stmt_fringe_width", "Widest live fringe across the sketch's bitmaps.", "gauge",
			func(h *imps.HealthReport) float64 { return float64(h.FringeWidth) }},
		{"imps_stmt_rel_err", "Estimator's self-assessed relative error (stderr/estimate).", "gauge",
			func(h *imps.HealthReport) float64 { return h.RelErr }},
	}
	for _, g := range stmtGauges {
		mw.help(g.name, g.help, g.typ)
		for i := range health {
			h := &health[i]
			mw.series(g.name,
				fmt.Sprintf(`stmt="%d",kind="%s",shared="%t"`, h.Stmt, escapeLabel(h.Kind), h.Shared),
				g.value(h))
		}
	}
	return mw.err
}

// metricsWriter accumulates the first write error so callers check once.
type metricsWriter struct {
	w   io.Writer
	err error
}

func (m *metricsWriter) printf(format string, args ...any) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.w, format, args...)
}

func (m *metricsWriter) help(name, help, typ string) {
	m.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (m *metricsWriter) series(name, labels string, v float64) {
	m.printf("%s{%s} %s\n", name, labels, formatValue(v))
}

func (m *metricsWriter) counter(name, help string, v int64) {
	m.help(name, help, "counter")
	m.printf("%s %d\n", name, v)
}

func (m *metricsWriter) gauge(name, help string, v float64) {
	m.help(name, help, "gauge")
	m.printf("%s %s\n", name, formatValue(v))
}

// formatValue renders a sample value; Prometheus accepts "+Inf"/"-Inf"/
// "NaN", which is exactly what strconv emits for the non-finite cases.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the Prometheus text exposition
// format: backslash, double quote and newline are the three characters a
// quoted label value cannot carry literally. Everything in this repo's own
// label vocabulary is already clean — this guards values that originate
// outside it (estimator kinds, leaf names).
func escapeLabel(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\\' || c == '"' || c == '\n' {
			out := make([]byte, 0, len(s)+4)
			for j := 0; j < len(s); j++ {
				switch s[j] {
				case '\\':
					out = append(out, '\\', '\\')
				case '"':
					out = append(out, '\\', '"')
				case '\n':
					out = append(out, '\\', 'n')
				default:
					out = append(out, s[j])
				}
			}
			return string(out)
		}
	}
	return s
}
