package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"text/tabwriter"
	"time"

	"implicate/internal/client"
	"implicate/internal/coord"
	"implicate/internal/core"
	"implicate/internal/exact"
	"implicate/internal/gen"
	"implicate/internal/imps"
	"implicate/internal/obs"
	"implicate/internal/query"
	"implicate/internal/server"
	"implicate/internal/stream"
)

// ObsConfig parametrizes the observability-overhead harness: the serve
// harness's loopback ingest run, once with the observability layer off and
// once fully on — span tracing in every layer plus a live /metrics scraper
// — so the instrumentation guardrail ("tracing must stay within a few
// percent of untraced throughput") is a measured number, not a hope.
type ObsConfig struct {
	// Tuples is the stream length per variant.
	Tuples int
	// Batch is the tuples-per-IngestBatch size.
	Batch int
	// Producers is the number of concurrent client goroutines.
	Producers int
	// Workers is the pipeline pool size (one size; the sweep lives in the
	// serve experiment).
	Workers int
	// Queue is the server's ingest queue depth in batches.
	Queue int
	// Leaves, when positive, adds a fleet pair per GOMAXPROCS setting
	// after the single-server pair: a coordinator fronting that many leaf
	// servers, with the observed variant arming cross-node tracing on the
	// coordinator and every leaf, the fleet admin endpoint up, and the
	// scraper walking the coordinator's /metrics — which itself fans
	// Stats/Health RPCs out over the fleet on every poll. The leaves run
	// merge-compatible "nips" sketches (the coordinator's merge fan-in
	// round-trips marshalled sketches, which the exact backend cannot), so
	// fleet rows are not count-comparable with single-server rows; the
	// off/on equality check runs per topology.
	Leaves int
	// TraceSpans is the observed variant's ring capacity.
	TraceSpans int
	// ScrapeEvery is the observed variant's /metrics poll interval.
	ScrapeEvery time.Duration
	// Procs lists the GOMAXPROCS values to sweep; defaults to the current
	// setting only.
	Procs []int
	// Seed drives the workload generator.
	Seed int64
}

func (c ObsConfig) withDefaults() ObsConfig {
	if c.Tuples == 0 {
		// Long enough that each variant runs for whole seconds: the
		// guardrail chases a few percent, which sub-200ms runs cannot
		// resolve above scheduler noise.
		c.Tuples = 1_000_000
	}
	if c.Batch == 0 {
		c.Batch = 1000
	}
	if c.Producers < 1 {
		c.Producers = 4
	}
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.Queue == 0 {
		c.Queue = 64
	}
	if c.TraceSpans == 0 {
		c.TraceSpans = obs.DefaultSpans
	}
	if c.ScrapeEvery == 0 {
		c.ScrapeEvery = 50 * time.Millisecond
	}
	if len(c.Procs) == 0 {
		c.Procs = []int{runtime.GOMAXPROCS(0)}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ObsRow is one variant's measured throughput.
type ObsRow struct {
	// Observed marks the instrumented variant: tracing on in every layer,
	// admin endpoint up, a scraper polling /metrics throughout the run.
	Observed bool `json:"observed"`
	// Leaves is the fleet size of a coordinator-fronted row; 0 for the
	// single-server rows.
	Leaves int `json:"leaves,omitempty"`
	// Procs is the GOMAXPROCS value the variant ran under.
	Procs int `json:"gomaxprocs"`
	// Workers is the pipeline pool size.
	Workers int `json:"workers"`
	// Tuples is the stream length.
	Tuples int `json:"tuples"`
	// Seconds is the wall clock from first send to drained shutdown.
	Seconds float64 `json:"seconds"`
	// TuplesPerSec is Tuples/Seconds.
	TuplesPerSec float64 `json:"tuples_per_sec"`
	// Implications is the final statement count — must agree between the
	// variants: observability must never change an answer.
	Implications float64 `json:"implications"`
	// Spans is the number of spans the tracer admitted (0 when off).
	Spans uint64 `json:"spans"`
	// Scrapes is the number of /metrics polls served during the run.
	Scrapes int64 `json:"scrapes"`
}

// RunObs measures loopback ingest throughput with the observability layer
// off and on. Both variants see identical pre-encoded batches over the
// striped exact backend; the report's overhead percentage is the headline
// number.
func RunObs(cfg ObsConfig) ([]ObsRow, error) {
	cfg = cfg.withDefaults()

	d, err := gen.NewDatasetOne(gen.DatasetOneConfig{
		CardA: cfg.Tuples / 10,
		Count: cfg.Tuples / 20,
		C:     2,
		Seed:  cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	schema, err := stream.NewSchema("A", "B")
	if err != nil {
		return nil, err
	}
	tuples := make([]stream.Tuple, 0, cfg.Tuples)
	for _, p := range d.Pairs {
		tuples = append(tuples, stream.Tuple{fmt.Sprintf("a%d", p.A), fmt.Sprintf("b%d", p.B)})
	}
	for len(tuples) < cfg.Tuples {
		tuples = append(tuples, tuples[:min(len(tuples), cfg.Tuples-len(tuples))]...)
	}
	tuples = tuples[:cfg.Tuples]

	// Key-hash producer routing, as in RunServe: keeps the final count
	// interleaving-invariant so the off/on equality check is meaningful.
	byProducer := make([][]stream.Tuple, cfg.Producers)
	for _, t := range tuples {
		h := uint64(14695981039346656037)
		for i := 0; i < len(t[0]); i++ {
			h = (h ^ uint64(t[0][i])) * 1099511628211
		}
		p := int(h % uint64(cfg.Producers))
		byProducer[p] = append(byProducer[p], t)
	}
	payloads := make([][]encBatch, cfg.Producers)
	for p := range byProducer {
		own := byProducer[p]
		for off := 0; off < len(own); off += cfg.Batch {
			end := min(off+cfg.Batch, len(own))
			enc, err := client.EncodeBatch(schema, own[off:end])
			if err != nil {
				return nil, err
			}
			payloads[p] = append(payloads[p], encBatch{enc, int64(end - off)})
		}
	}

	// The first server of each GOMAXPROCS setting is the warmup: it pays
	// the page faults, map growth and scheduler ramp-up that would
	// otherwise be billed to whichever variant ran first. Its row is
	// discarded.
	variants := []struct{ observed, record bool }{{true, false}, {false, true}, {true, true}}
	topologies := []int{0}
	if cfg.Leaves > 0 {
		topologies = append(topologies, cfg.Leaves)
	}
	var rows []ObsRow
	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)
	for _, procs := range cfg.Procs {
		runtime.GOMAXPROCS(procs)
		for _, leaves := range topologies {
			for _, v := range variants {
				var row ObsRow
				var err error
				if leaves > 0 {
					row, err = runObsFleetVariant(cfg, schema, payloads, procs, v.observed)
				} else {
					row, err = runObsVariant(cfg, schema, payloads, procs, v.observed)
				}
				if err != nil {
					return nil, err
				}
				if v.record {
					rows = append(rows, row)
				}
			}
		}
	}
	// The "observability must never change an answer" check runs per
	// topology. Single-server rows answer from the exact backend, which is
	// interleaving-invariant under the key-hash routing above, so they must
	// agree bit for bit. Fleet rows answer from sketches whose fringe
	// evictions depend on cross-producer arrival order at the coordinator —
	// an interleaving no layer controls, observed or not — so they are held
	// to a 3% band instead, well inside the sketch's own accuracy
	// guarantee; a tracer that biased the estimate would blow past it.
	ref := map[int]float64{}
	for _, r := range rows {
		want, ok := ref[r.Leaves]
		if !ok {
			ref[r.Leaves] = r.Implications
			continue
		}
		if r.Leaves == 0 && r.Implications != want {
			return nil, fmt.Errorf("obs bench: observed=%t procs=%d count %v != first row's count %v — instrumentation changed an answer",
				r.Observed, r.Procs, r.Implications, want)
		}
		if r.Leaves > 0 && math.Abs(r.Implications-want) > 0.03*want {
			return nil, fmt.Errorf("obs bench: observed=%t leaves=%d procs=%d count %v is over 3%% from the fleet's first count %v — instrumentation changed an answer",
				r.Observed, r.Leaves, r.Procs, r.Implications, want)
		}
	}
	return rows, nil
}

// runObsVariant runs one loopback ingest with the observability layer off
// or on under the current GOMAXPROCS.
func runObsVariant(cfg ObsConfig, schema *stream.Schema, payloads [][]encBatch, procs int, observed bool) (ObsRow, error) {
	eng := query.NewEngine(schema)
	st, err := eng.RegisterSQL(serveSQL, func(cond imps.Conditions) (imps.Estimator, error) {
		return exact.NewStriped(cond, 0)
	})
	if err != nil {
		return ObsRow{}, err
	}
	scfg := server.Config{
		Addr:       "127.0.0.1:0",
		Schema:     schema,
		Engine:     eng,
		QueueDepth: cfg.Queue,
		Workers:    cfg.Workers,
	}
	if observed {
		scfg.TraceSpans = cfg.TraceSpans
	}
	srv, err := server.Listen(scfg)
	if err != nil {
		return ObsRow{}, err
	}

	// The observed variant pays for the whole layer: admin endpoint up
	// and a scraper walking /metrics (telemetry snapshot + full health
	// walk) for the duration of the run.
	var admin *obs.AdminServer
	var scrapes int64
	scrapeDone := make(chan struct{})
	stopScrape := make(chan struct{})
	if observed {
		admin, err = obs.ListenAdmin("127.0.0.1:0", srv)
		if err != nil {
			return ObsRow{}, err
		}
		go func() {
			defer close(scrapeDone)
			hc := &http.Client{Timeout: 5 * time.Second}
			for {
				select {
				case <-stopScrape:
					return
				case <-time.After(cfg.ScrapeEvery):
				}
				resp, err := hc.Get("http://" + admin.Addr + "/metrics")
				if err != nil {
					continue // server mid-shutdown
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				scrapes++
			}
		}()
	} else {
		close(scrapeDone)
	}

	var wg sync.WaitGroup
	errs := make(chan error, cfg.Producers)
	start := time.Now()
	for p := 0; p < cfg.Producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cl, err := client.Dial(srv.Addr(), schema, client.Options{
				Conns:       1,
				BusyRetries: -1,
				RetryBase:   200 * time.Microsecond,
				RetryCap:    5 * time.Millisecond,
			})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for _, b := range payloads[p] {
				if err := cl.IngestEncoded(b.payload, b.n); err != nil {
					errs <- err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		return ObsRow{}, err
	}
	dur := time.Since(start)
	close(stopScrape)
	<-scrapeDone
	admin.Close()
	close(errs)
	for err := range errs {
		if err != nil {
			return ObsRow{}, err
		}
	}

	sn := srv.Telemetry().Snapshot()
	if sn.TuplesIngested != int64(cfg.Tuples) {
		return ObsRow{}, fmt.Errorf("obs bench: observed=%t applied %d of %d tuples", observed, sn.TuplesIngested, cfg.Tuples)
	}
	return ObsRow{
		Observed:     observed,
		Procs:        procs,
		Workers:      cfg.Workers,
		Tuples:       cfg.Tuples,
		Seconds:      dur.Seconds(),
		TuplesPerSec: float64(cfg.Tuples) / dur.Seconds(),
		Implications: st.Count(),
		Spans:        srv.Tracer().Recorded(),
		Scrapes:      scrapes,
	}, nil
}

// runObsFleetVariant runs one fleet ingest — cfg.Leaves leaf servers
// behind a coordinator front-end — with the fleet observability layer off
// or on. The observed variant pays for everything PR 10 added: cross-node
// delivery spans on the coordinator, trace-aware leaves parenting their
// pipeline spans under inbound contexts, the fleet admin endpoint, and a
// scraper walking /metrics (coordinator series plus the per-leaf roll-up,
// which fans Stats and Health RPCs over the fleet on every poll). The
// timed region runs from first send through the coordinator's Flush — the
// fleet-wide quiesce — so journal depth cannot fake throughput.
func runObsFleetVariant(cfg ObsConfig, schema *stream.Schema, payloads [][]encBatch, procs int, observed bool) (ObsRow, error) {
	backend := func(cond imps.Conditions) (imps.Estimator, error) {
		return core.NewSketch(cond, core.Options{Seed: uint64(cfg.Seed)*2 + 1})
	}
	leaves := make([]*server.Server, 0, cfg.Leaves)
	closeLeaves := func() {
		for _, srv := range leaves {
			srv.Close()
		}
	}
	specs := make([]coord.LeafSpec, cfg.Leaves)
	for i := 0; i < cfg.Leaves; i++ {
		eng := query.NewEngine(schema)
		if _, err := eng.RegisterSQL(serveSQL, backend); err != nil {
			closeLeaves()
			return ObsRow{}, err
		}
		scfg := server.Config{
			Addr:        "127.0.0.1:0",
			Schema:      schema,
			Engine:      eng,
			QueueDepth:  cfg.Queue,
			Workers:     cfg.Workers,
			BlockOnFull: true,
		}
		if observed {
			scfg.TraceSpans = cfg.TraceSpans
		}
		srv, err := server.Listen(scfg)
		if err != nil {
			closeLeaves()
			return ObsRow{}, err
		}
		leaves = append(leaves, srv)
		specs[i] = coord.LeafSpec{Name: fmt.Sprintf("leaf%d", i), Addr: srv.Addr()}
	}
	ccfg := coord.Config{
		Schema:      schema,
		Statements:  []string{serveSQL},
		Leaves:      specs,
		FlushTuples: cfg.Batch,
	}
	if observed {
		ccfg.TraceSpans = cfg.TraceSpans
	}
	co, err := coord.New(ccfg)
	if err != nil {
		closeLeaves()
		return ObsRow{}, err
	}
	fe, err := coord.Serve(co, "127.0.0.1:0")
	if err != nil {
		co.Close()
		closeLeaves()
		return ObsRow{}, err
	}

	var admin *obs.AdminServer
	var scrapes int64
	scrapeDone := make(chan struct{})
	stopScrape := make(chan struct{})
	if observed {
		admin, err = obs.ListenFleetAdmin("127.0.0.1:0", co)
		if err != nil {
			fe.Close()
			co.Close()
			closeLeaves()
			return ObsRow{}, err
		}
		go func() {
			defer close(scrapeDone)
			hc := &http.Client{Timeout: 5 * time.Second}
			for {
				select {
				case <-stopScrape:
					return
				case <-time.After(cfg.ScrapeEvery):
				}
				resp, err := hc.Get("http://" + admin.Addr + "/metrics")
				if err != nil {
					continue // coordinator mid-shutdown
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				scrapes++
			}
		}()
	} else {
		close(scrapeDone)
	}

	var wg sync.WaitGroup
	errs := make(chan error, cfg.Producers)
	start := time.Now()
	for p := 0; p < cfg.Producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cl, err := client.Dial(fe.Addr(), schema, client.Options{
				Conns:       1,
				BusyRetries: -1,
				RetryBase:   200 * time.Microsecond,
				RetryCap:    5 * time.Millisecond,
			})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for _, b := range payloads[p] {
				if err := cl.IngestEncoded(b.payload, b.n); err != nil {
					errs <- err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	flushErr := co.Flush()
	dur := time.Since(start)
	close(stopScrape)
	<-scrapeDone
	admin.Close()
	close(errs)
	for err := range errs {
		if err != nil {
			fe.Close()
			co.Close()
			closeLeaves()
			return ObsRow{}, err
		}
	}
	if flushErr != nil {
		fe.Close()
		co.Close()
		closeLeaves()
		return ObsRow{}, flushErr
	}
	q, err := co.Query(0)
	spans := co.Tracer().Recorded()
	fe.Close()
	co.Close()
	for _, srv := range leaves {
		spans += srv.Tracer().Recorded()
		if cerr := srv.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return ObsRow{}, err
	}
	if q.Tuples != int64(cfg.Tuples) {
		return ObsRow{}, fmt.Errorf("obs bench: observed=%t fleet of %d applied %d of %d tuples", observed, cfg.Leaves, q.Tuples, cfg.Tuples)
	}
	return ObsRow{
		Observed:     observed,
		Leaves:       cfg.Leaves,
		Procs:        procs,
		Workers:      cfg.Workers,
		Tuples:       cfg.Tuples,
		Seconds:      dur.Seconds(),
		TuplesPerSec: float64(cfg.Tuples) / dur.Seconds(),
		Implications: q.Count,
		Spans:        spans,
		Scrapes:      scrapes,
	}, nil
}

// ObsOverheadPct is the observed variant's throughput loss against the
// baseline, in percent (negative: the observed run was faster — noise).
// With a GOMAXPROCS sweep the rows hold one baseline/observed pair per
// setting and topology; the worst pair is the guardrail number.
func ObsOverheadPct(rows []ObsRow) float64 {
	worst := 0.0
	first := true
	for i := 0; i+1 < len(rows); i += 2 {
		base, obsd := rows[i], rows[i+1]
		if base.Observed || !obsd.Observed || base.Leaves != obsd.Leaves || base.TuplesPerSec == 0 {
			continue
		}
		pct := 100 * (1 - obsd.TuplesPerSec/base.TuplesPerSec)
		if first || pct > worst {
			worst, first = pct, false
		}
	}
	return worst
}

// PrintObs writes the observability-overhead table.
func PrintObs(w io.Writer, cfg ObsConfig, rows []ObsRow) {
	cfg = cfg.withDefaults()
	topo := "single server"
	if cfg.Leaves > 0 {
		topo = fmt.Sprintf("single server + coordinator over %d leaves", cfg.Leaves)
	}
	fmt.Fprintf(w, "Observability overhead (%s, %d tuples, batch %d, %d producers, %d workers, %d-span ring)\n",
		topo, cfg.Tuples, cfg.Batch, cfg.Producers, cfg.Workers, cfg.TraceSpans)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\tprocs\ttuples/s\tseconds\tspans\tscrapes\timplications")
	for _, r := range rows {
		name := "baseline"
		if r.Observed {
			name = "traced+scraped"
		}
		if r.Leaves > 0 {
			name = "fleet-" + name
		}
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.3f\t%d\t%d\t%.1f\n",
			name, r.Procs, r.TuplesPerSec, r.Seconds, r.Spans, r.Scrapes, r.Implications)
	}
	tw.Flush()
	fmt.Fprintf(w, "overhead (worst pair): %.1f%%\n", ObsOverheadPct(rows))
}

// obsReport is the JSON schema of -json output.
type obsReport struct {
	Tuples      int      `json:"tuples"`
	Batch       int      `json:"batch"`
	Producers   int      `json:"producers"`
	Workers     int      `json:"workers"`
	TraceSpans  int      `json:"trace_spans"`
	Leaves      int      `json:"leaves,omitempty"`
	OverheadPct float64  `json:"overhead_pct"`
	Rows        []ObsRow `json:"rows"`
}

// WriteObsJSON writes the rows as an indented JSON report.
func WriteObsJSON(w io.Writer, cfg ObsConfig, rows []ObsRow) error {
	cfg = cfg.withDefaults()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(obsReport{
		Tuples:      cfg.Tuples,
		Batch:       cfg.Batch,
		Producers:   cfg.Producers,
		Workers:     cfg.Workers,
		TraceSpans:  cfg.TraceSpans,
		Leaves:      cfg.Leaves,
		OverheadPct: ObsOverheadPct(rows),
		Rows:        rows,
	})
}
