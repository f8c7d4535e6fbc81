package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"implicate/internal/imps"
	"implicate/internal/telemetry"
)

// The coordinator's observability surface: the impcoordd admin endpoint.
// Where a leaf's admin endpoint serves its own counters, the coordinator's
// serves three layers at once — its own front-end counters, the
// coordinator-side per-leaf rows only it can know (journal depth, replay
// counts, prober transitions, delivery latency), and a roll-up of what
// each leaf reports about itself over the Stats/Health RPCs, re-rendered
// under a leaf="name" label so one scrape sees the whole fleet.

// LeafTelemetry is one leaf's coordinator-side observability row: what the
// coordinator itself knows about the leaf (journal, delivery, liveness
// history), as opposed to anything the leaf reports about itself.
type LeafTelemetry struct {
	Name string
	// State is "up", "down" or "recovering"; a sticky-fatal leaf reports
	// down.
	State string
	// Epoch counts completed recoveries.
	Epoch uint64
	// Parts is how many route-table partitions (sketch bitmaps) it owns.
	Parts int
	// JournalEntries / JournalTuples measure everything ever routed here.
	JournalEntries int64
	JournalTuples  int64
	// PendingEntries / PendingTuples measure the journal depth: routed but
	// not yet delivered to the leaf.
	PendingEntries int64
	PendingTuples  int64
	// Replayed counts journal entries re-delivered by recoveries.
	Replayed int64
	// Downs counts up→down prober/feeder transitions.
	Downs int64
	// Delivery is the per-leaf delivery latency histogram: one observation
	// per IngestBatch round trip to the leaf, failures included.
	Delivery telemetry.Histogram
}

// LeafStatsRow is one leaf's own telemetry snapshot, labeled with its name.
type LeafStatsRow struct {
	Name  string
	Stats telemetry.Snapshot
}

// LeafHealthRow is one leaf's estimator health reports, labeled with its
// name.
type LeafHealthRow struct {
	Name    string
	Reports []imps.HealthReport
}

// FleetAdminState is what the coordinator admin endpoint reads from a
// running coordinator. coord.Coordinator implements it; like AdminState
// the split keeps obs free of a coord dependency (coord imports obs).
type FleetAdminState interface {
	// CoordStats is the coordinator's own counter snapshot (routed tuples
	// and batches, front-end RPC latency).
	CoordStats() telemetry.Snapshot
	// FleetTelemetry is the coordinator-side per-leaf rows, in leaf order.
	FleetTelemetry() []LeafTelemetry
	// FleetStats is each reachable leaf's own telemetry snapshot.
	FleetStats() []LeafStatsRow
	// FleetHealth is each reachable leaf's estimator health reports.
	FleetHealth() []LeafHealthRow
	// FleetTrace is the assembled cross-node trace (empty when tracing is
	// off).
	FleetTrace() []FleetSpan
	// VirtualPartitions is the route-table size: the leaves' bitmap count.
	VirtualPartitions() int
}

// WriteFleetMetrics renders the coordinator's /metrics payload: the
// coordinator's own counters through the same name mapping a leaf uses,
// then the coordinator-side imps_coord_* fleet series, then the rolled-up
// imps_leaf_* series re-rendered from each leaf's Stats/Health answers.
// The roll-up carries whatever the fleet could answer at scrape time —
// down leaves simply have no rows this scrape.
func WriteFleetMetrics(w io.Writer, st FleetAdminState) error {
	if err := WriteMetrics(w, st.CoordStats(), nil); err != nil {
		return err
	}
	mw := &metricsWriter{w: w}

	mw.gauge("imps_coord_virtual_partitions", "Route-table partitions across the fleet.", float64(st.VirtualPartitions()))

	rows := st.FleetTelemetry()
	coordGauges := []struct {
		name, help string
		typ        string
		value      func(r *LeafTelemetry) float64
	}{
		{"imps_coord_leaf_up", "1 when the leaf is up, 0 while it is down or recovering.", "gauge",
			func(r *LeafTelemetry) float64 {
				if r.State == "up" {
					return 1
				}
				return 0
			}},
		{"imps_coord_leaf_parts", "Route-table partitions mapped to the leaf.", "gauge",
			func(r *LeafTelemetry) float64 { return float64(r.Parts) }},
		{"imps_coord_leaf_journal_entries_total", "Batches ever journaled for the leaf.", "counter",
			func(r *LeafTelemetry) float64 { return float64(r.JournalEntries) }},
		{"imps_coord_leaf_journal_tuples_total", "Tuples ever routed to the leaf.", "counter",
			func(r *LeafTelemetry) float64 { return float64(r.JournalTuples) }},
		{"imps_coord_leaf_journal_depth_entries", "Journaled batches not yet delivered to the leaf.", "gauge",
			func(r *LeafTelemetry) float64 { return float64(r.PendingEntries) }},
		{"imps_coord_leaf_journal_depth_tuples", "Routed tuples not yet delivered to the leaf.", "gauge",
			func(r *LeafTelemetry) float64 { return float64(r.PendingTuples) }},
		{"imps_coord_leaf_replayed_entries_total", "Journal entries re-delivered by recoveries.", "counter",
			func(r *LeafTelemetry) float64 { return float64(r.Replayed) }},
		{"imps_coord_leaf_down_transitions_total", "Up-to-down prober/feeder transitions observed.", "counter",
			func(r *LeafTelemetry) float64 { return float64(r.Downs) }},
		{"imps_coord_leaf_recoveries_total", "Completed recoveries (the leaf's epoch).", "counter",
			func(r *LeafTelemetry) float64 { return float64(r.Epoch) }},
		{"imps_coord_leaf_deliveries_total", "Delivery round trips to the leaf, failures included.", "counter",
			func(r *LeafTelemetry) float64 { return float64(r.Delivery.Count()) }},
	}
	for _, g := range coordGauges {
		mw.help(g.name, g.help, g.typ)
		for i := range rows {
			r := &rows[i]
			mw.series(g.name, fmt.Sprintf(`leaf="%s"`, escapeLabel(r.Name)), g.value(r))
		}
	}
	mw.help("imps_coord_leaf_delivery_seconds", "Delivery latency quantile upper bounds, per leaf (log2 buckets).", "summary")
	for i := range rows {
		r := &rows[i]
		if r.Delivery.Count() == 0 {
			continue
		}
		for _, q := range quantiles {
			mw.series("imps_coord_leaf_delivery_seconds",
				fmt.Sprintf(`leaf="%s",quantile="%s"`, escapeLabel(r.Name), strconv.FormatFloat(q, 'g', -1, 64)),
				r.Delivery.Quantile(q).Seconds())
		}
	}

	stats := st.FleetStats()
	leafGauges := []struct {
		name, help string
		typ        string
		value      func(s *telemetry.Snapshot) float64
	}{
		{"imps_leaf_tuples_ingested_total", "Tuples the leaf applied to its engine.", "counter",
			func(s *telemetry.Snapshot) float64 { return float64(s.TuplesIngested) }},
		{"imps_leaf_batches_total", "Batches the leaf accepted into its ingest queue.", "counter",
			func(s *telemetry.Snapshot) float64 { return float64(s.Batches) }},
		{"imps_leaf_batches_rejected_total", "Batches the leaf refused with a backpressure reply.", "counter",
			func(s *telemetry.Snapshot) float64 { return float64(s.BatchesRejected) }},
		{"imps_leaf_merges_total", "Remote sketches the leaf merged in.", "counter",
			func(s *telemetry.Snapshot) float64 { return float64(s.Merges) }},
		{"imps_leaf_queue_high_water", "Deepest the leaf's ingest queue has been.", "gauge",
			func(s *telemetry.Snapshot) float64 { return float64(s.QueueHighWater) }},
	}
	for _, g := range leafGauges {
		mw.help(g.name, g.help, g.typ)
		for i := range stats {
			row := &stats[i]
			mw.series(g.name, fmt.Sprintf(`leaf="%s"`, escapeLabel(row.Name)), g.value(&row.Stats))
		}
	}
	mw.help("imps_leaf_ingest_latency_seconds", "Leaf-side IngestBatch latency quantile upper bounds.", "summary")
	for i := range stats {
		row := &stats[i]
		h := &row.Stats.Latency[telemetry.RPCIngest]
		if h.Count() == 0 {
			continue
		}
		for _, q := range quantiles {
			mw.series("imps_leaf_ingest_latency_seconds",
				fmt.Sprintf(`leaf="%s",quantile="%s"`, escapeLabel(row.Name), strconv.FormatFloat(q, 'g', -1, 64)),
				h.Quantile(q).Seconds())
		}
	}

	health := st.FleetHealth()
	mw.help("imps_leaf_stmt_rel_err", "Statement estimator's self-assessed relative error, per leaf.", "gauge")
	for i := range health {
		row := &health[i]
		for j := range row.Reports {
			h := &row.Reports[j]
			mw.series("imps_leaf_stmt_rel_err",
				fmt.Sprintf(`leaf="%s",stmt="%d",kind="%s"`, escapeLabel(row.Name), h.Stmt, escapeLabel(h.Kind)),
				h.RelErr)
		}
	}
	mw.help("imps_leaf_worst_rel_err", "Worst self-assessed estimator error across the leaf's statements.", "gauge")
	for i := range health {
		row := &health[i]
		worst := 0.0
		for j := range row.Reports {
			if e := row.Reports[j].RelErr; e > worst {
				worst = e
			}
		}
		mw.series("imps_leaf_worst_rel_err", fmt.Sprintf(`leaf="%s"`, escapeLabel(row.Name)), worst)
	}
	return mw.err
}

// FleetJSON is the /fleet document imptop's coordinator mode polls: the
// coordinator's own throughput plus one merged row per leaf combining the
// coordinator-side view (state, journal depth, delivery latency) with what
// the leaf reports about itself (applied tuples, queue depth, worst
// estimator error). Leaf-reported fields are -1 when the leaf could not be
// reached this poll.
type FleetJSON struct {
	VirtualPartitions int             `json:"virtual_partitions"`
	TuplesRouted      int64           `json:"tuples_routed"`
	BatchesRouted     int64           `json:"batches_routed"`
	Leaves            []FleetLeafJSON `json:"leaves"`
}

// FleetLeafJSON is one leaf's merged row in the /fleet document.
type FleetLeafJSON struct {
	Name           string  `json:"name"`
	State          string  `json:"state"`
	Parts          int     `json:"parts"`
	Epoch          uint64  `json:"epoch"`
	Downs          int64   `json:"downs"`
	JournalTuples  int64   `json:"journal_tuples"`
	PendingTuples  int64   `json:"pending_tuples"`
	PendingEntries int64   `json:"pending_entries"`
	Replayed       int64   `json:"replayed_entries"`
	Deliveries     uint64  `json:"deliveries"`
	DeliveryP50NS  int64   `json:"delivery_p50_ns"`
	DeliveryP99NS  int64   `json:"delivery_p99_ns"`
	TuplesIngested int64   `json:"tuples_ingested"`
	QueueHighWater int64   `json:"queue_high_water"`
	WorstRelErr    float64 `json:"worst_rel_err"`
}

// BuildFleetJSON assembles the /fleet document from one read of the admin
// state. Exported so imptop's tests can decode what the endpoint encodes.
func BuildFleetJSON(st FleetAdminState) FleetJSON {
	sn := st.CoordStats()
	doc := FleetJSON{
		VirtualPartitions: st.VirtualPartitions(),
		TuplesRouted:      sn.TuplesIngested,
		BatchesRouted:     sn.Batches,
	}
	statsRows := st.FleetStats()
	stats := make(map[string]*telemetry.Snapshot, len(statsRows))
	for i := range statsRows {
		stats[statsRows[i].Name] = &statsRows[i].Stats
	}
	worst := make(map[string]float64)
	for _, row := range st.FleetHealth() {
		w := 0.0
		for _, h := range row.Reports {
			if h.RelErr > w {
				w = h.RelErr
			}
		}
		// An estimator that cannot bound its error reports ±Inf (or NaN when
		// empty); JSON cannot carry those, so they collapse into the same -1
		// sentinel as an unreachable leaf — imptop renders both as a dash.
		if math.IsInf(w, 0) || math.IsNaN(w) {
			continue
		}
		worst[row.Name] = w
	}
	for _, r := range st.FleetTelemetry() {
		lj := FleetLeafJSON{
			Name:           r.Name,
			State:          r.State,
			Parts:          r.Parts,
			Epoch:          r.Epoch,
			Downs:          r.Downs,
			JournalTuples:  r.JournalTuples,
			PendingTuples:  r.PendingTuples,
			PendingEntries: r.PendingEntries,
			Replayed:       r.Replayed,
			Deliveries:     r.Delivery.Count(),
			DeliveryP50NS:  int64(r.Delivery.Quantile(0.5)),
			DeliveryP99NS:  int64(r.Delivery.Quantile(0.99)),
			TuplesIngested: -1,
			QueueHighWater: -1,
			WorstRelErr:    -1,
		}
		if s, ok := stats[r.Name]; ok {
			lj.TuplesIngested = s.TuplesIngested
			lj.QueueHighWater = s.QueueHighWater
		}
		if w, ok := worst[r.Name]; ok {
			lj.WorstRelErr = w
		}
		doc.Leaves = append(doc.Leaves, lj)
	}
	return doc
}

// NewFleetAdminMux returns the impcoordd admin handler: the three-layer
// Prometheus /metrics, a fleet-aware /healthz (ok, degraded or down, one
// line per leaf), the /fleet JSON document imptop polls, and the shared
// /trace (here the assembled fleet trace) and pprof skeleton.
func NewFleetAdminMux(st FleetAdminState) *http.ServeMux {
	mux := adminMux(st.FleetTrace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteFleetMetrics(w, st)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rows := st.FleetTelemetry()
		up := 0
		for _, row := range rows {
			if row.State == "up" {
				up++
			}
		}
		// The summary word is the machine-readable part probes key on: ok
		// (whole fleet serving), degraded (partial), down (no leaf up).
		switch {
		case up == len(rows):
			_, _ = w.Write([]byte("ok\n"))
		case up > 0:
			_, _ = w.Write([]byte("degraded\n"))
		default:
			_, _ = w.Write([]byte("down\n"))
		}
		for _, row := range rows {
			fmt.Fprintf(w, "leaf %s state=%s epoch=%d downs=%d journaled=%d pending=%d replayed=%d\n",
				row.Name, row.State, row.Epoch, row.Downs, row.JournalTuples, row.PendingTuples, row.Replayed)
		}
	})
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		// Marshal before touching the ResponseWriter: an encode failure can
		// still become a 500 rather than an empty 200.
		body, err := json.MarshalIndent(BuildFleetJSON(st), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		io.WriteString(w, "\n")
	})
	return mux
}

// ListenFleetAdmin binds addr and serves the fleet admin mux in a
// background goroutine. Like the leaf admin endpoint it is
// unauthenticated — bind it to loopback or an operations network.
func ListenFleetAdmin(addr string, st FleetAdminState) (*AdminServer, error) {
	return listen(addr, NewFleetAdminMux(st))
}
