package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"implicate/internal/client"
	"implicate/internal/coord"
	"implicate/internal/core"
	"implicate/internal/exact"
	"implicate/internal/gen"
	"implicate/internal/imps"
	"implicate/internal/query"
	"implicate/internal/server"
	"implicate/internal/stream"
	"implicate/internal/tenant"
)

// ServeConfig parametrizes the serving-layer throughput harness: a loopback
// impserved instance ingesting one synthetic stream over the wire protocol
// at several pipeline pool sizes, so the worker fan-out (DESIGN.md §7) is
// measured end to end — decode, plan, dispatch, apply, drain.
type ServeConfig struct {
	// Tuples is the stream length per variant.
	Tuples int
	// Batch is the tuples-per-IngestBatch size.
	Batch int
	// Producers is the number of concurrent client goroutines (one
	// connection each); defaults to 4.
	Producers int
	// Workers lists the pool sizes to run; defaults to 1, 4.
	Workers []int
	// Queue is the server's ingest queue depth in batches; defaults to
	// Producers*Window so the queue never throttles below the pipelining
	// depth. The server runs with BlockOnFull, so a full queue stalls the
	// connection readers rather than refusing batches — a refused-and-
	// resent batch would land after its pipelined successors and break the
	// per-key order the determinism cross-check depends on.
	Queue int
	// Window is the per-producer pipelining window in batches; defaults
	// to 16. One means synchronous (a full round trip per batch).
	Window int
	// Procs lists the GOMAXPROCS values to sweep; defaults to the current
	// setting only.
	Procs []int
	// Transports lists the wire paths to measure: "tcp", "udp". Defaults
	// to both. With Leaves > 0 the sweep is replaced by the "fleet"
	// transport regardless of this setting.
	Transports []string
	// Tenants, when positive, adds a "tenants" row per pool size: the same
	// stream served by one multi-tenant server with N named tenants,
	// producers pinned round-robin to tenants by authenticated sessions.
	// Key-hash producer routing keeps every key inside one tenant, so the
	// sum of the per-tenant counts must equal the single-engine rows' count
	// — the determinism cross-check extends across the tenant boundary.
	Tenants int
	// Leaves, when positive, measures a coordinator fronting that many
	// leaf servers instead of one server: producers feed the coordinator's
	// front-end, which routes and fans batches out over the fleet. The
	// leaves run merge-compatible "nips" sketches (the coordinator's merge
	// fan-in round-trips marshalled sketches, which the exact backend
	// cannot), so fleet rows are not count-comparable with tcp/udp rows and
	// replace them.
	Leaves int
	// DispatchShards is the fair-dispatch shard count per tenant lane
	// (server.Config.DispatchShards); 0 selects 1, the single-dispatcher
	// path.
	DispatchShards int
	// Seed drives the workload generator.
	Seed int64
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.Tuples == 0 {
		c.Tuples = 500_000
	}
	if c.Batch == 0 {
		c.Batch = 1000
	}
	if c.Producers < 1 {
		c.Producers = 4
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 4}
	}
	if c.Window == 0 {
		c.Window = 16
	}
	if c.Queue < c.Producers*c.Window {
		c.Queue = c.Producers * c.Window
	}
	if len(c.Procs) == 0 {
		c.Procs = []int{runtime.GOMAXPROCS(0)}
	}
	if c.Leaves > 0 {
		c.Transports = []string{"fleet"}
	} else if len(c.Transports) == 0 {
		c.Transports = []string{"tcp", "udp"}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// serveSQL matches ingestCond, so the serve and ingest harnesses measure
// the same statistic.
const serveSQL = `SELECT COUNT(DISTINCT A) FROM s WHERE A IMPLIES B WITH SUPPORT >= 5, MULTIPLICITY <= 2, CONFIDENCE >= 0.6 TOP 1`

// ServeRow is one pool size's measured end-to-end throughput.
type ServeRow struct {
	// Transport is the wire path measured: "tcp" (pipelined frames),
	// "udp" (datagram lane, acks polled over TCP), "fleet" (coordinator
	// fan-out) or "tenants" (multi-tenant server, authenticated sessions).
	Transport string `json:"transport"`
	// Tenants is the named-tenant count of a "tenants" row; 0 otherwise.
	Tenants int `json:"tenants,omitempty"`
	// Procs is the GOMAXPROCS value the variant ran under.
	Procs int `json:"gomaxprocs"`
	// Workers is the pipeline pool size.
	Workers int `json:"workers"`
	// Producers is the number of concurrent client connections.
	Producers int `json:"producers"`
	// Tuples is the stream length.
	Tuples int `json:"tuples"`
	// Seconds is the wall clock from first send to drained shutdown.
	Seconds float64 `json:"seconds"`
	// TuplesPerSec is Tuples/Seconds.
	TuplesPerSec float64 `json:"tuples_per_sec"`
	// Implications is the final statement count — identical across pool
	// sizes by the determinism invariant, and recorded so a variant that
	// dropped tuples cannot report a flattering throughput.
	Implications float64 `json:"implications"`
	// Rejected counts backpressure replies the producers retried.
	Rejected int64 `json:"rejected"`
	// PoolSaturation counts dispatches that found a worker queue full.
	PoolSaturation int64 `json:"pool_saturation"`
	// AllocsPerOp is heap allocations per ingested batch across the whole
	// loopback process (producers included) — the arena-path health metric
	// the bench gate watches alongside throughput.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// BytesPerOp is heap bytes allocated per ingested batch, measured like
	// AllocsPerOp.
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
}

// allocMeter measures whole-process heap allocation deltas around a bench
// region, reporting them per operation. ReadMemStats stops the world, so
// both reads sit outside the timed region's steady state by a hair — noise
// well under the gate's tolerance.
type allocMeter struct{ m0 runtime.MemStats }

func (a *allocMeter) start() { runtime.ReadMemStats(&a.m0) }

func (a *allocMeter) perOp(ops int) (allocs, bytes float64) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if ops <= 0 {
		return 0, 0
	}
	return float64(m1.Mallocs-a.m0.Mallocs) / float64(ops),
		float64(m1.TotalAlloc-a.m0.TotalAlloc) / float64(ops)
}

// batchOps counts the batches a run ingests — the "op" of the per-op
// allocation metrics.
func batchOps(payloads [][]encBatch) int {
	ops := 0
	for _, pb := range payloads {
		ops += len(pb)
	}
	return ops
}

// RunServe measures loopback ingest throughput at each configured pool
// size. Every variant sees the same pre-encoded batches; the striped exact
// counter backend is used so the ingest path is partition-safe (fans out
// across workers) and every variant's final count is exact and must agree.
func RunServe(cfg ServeConfig) ([]ServeRow, error) {
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
	// Printable keys: the wire schema rejects gen.Key's binary form (it may
	// contain the reserved separator byte).
	tuples := make([]stream.Tuple, 0, cfg.Tuples)
	for _, p := range d.Pairs {
		tuples = append(tuples, stream.Tuple{fmt.Sprintf("a%d", p.A), fmt.Sprintf("b%d", p.B)})
	}
	for len(tuples) < cfg.Tuples {
		tuples = append(tuples, tuples[:min(len(tuples), cfg.Tuples-len(tuples))]...)
	}
	tuples = tuples[:cfg.Tuples]

	// Route tuples to producers by key hash, not by contiguous slice: the
	// exact exclusion rule is order-dependent per key ("failed the condition
	// at any point"), and producer batches interleave differently from run
	// to run. With each key owned by one producer, every key's tuple order
	// is fixed end to end (producer FIFO → dispatcher → partition FIFO), so
	// the final count is interleaving-invariant and must agree across pool
	// sizes — the bench doubles as a determinism check.
	byProducer := make([][]stream.Tuple, cfg.Producers)
	for _, t := range tuples {
		h := uint64(14695981039346656037)
		for i := 0; i < len(t[0]); i++ {
			h = (h ^ uint64(t[0][i])) * 1099511628211
		}
		p := int(h % uint64(cfg.Producers))
		byProducer[p] = append(byProducer[p], t)
	}

	// Pre-encode each producer's batches once, outside every timed region.
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

	var rows []ServeRow
	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)
	for _, procs := range cfg.Procs {
		runtime.GOMAXPROCS(procs)
		for _, transport := range cfg.Transports {
			for _, workers := range cfg.Workers {
				row, err := runServeVariant(cfg, schema, payloads, transport, procs, workers)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
		if cfg.Tenants > 0 && cfg.Leaves == 0 {
			for _, workers := range cfg.Workers {
				row, err := runServeTenantsVariant(cfg, schema, payloads, procs, workers)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	// Every variant — any pool size, either transport, any GOMAXPROCS —
	// must land on the same exact count: the bench doubles as the
	// determinism check.
	for _, r := range rows[1:] {
		if r.Implications != rows[0].Implications {
			return nil, fmt.Errorf("serve bench: %s/%d-worker count %v != %s/%d-worker count %v — determinism invariant broken",
				r.Transport, r.Workers, r.Implications, rows[0].Transport, rows[0].Workers, rows[0].Implications)
		}
	}
	return rows, nil
}

// encBatch is one pre-encoded IngestBatch payload.
type encBatch struct {
	payload []byte
	n       int64
}

// runServeVariant measures one (transport, workers) point end to end.
func runServeVariant(cfg ServeConfig, schema *stream.Schema, payloads [][]encBatch, transport string, procs, workers int) (ServeRow, error) {
	if transport == "fleet" {
		return runServeFleetVariant(cfg, schema, payloads, procs, workers)
	}
	eng := query.NewEngine(schema)
	st, err := eng.RegisterSQL(serveSQL, func(cond imps.Conditions) (imps.Estimator, error) {
		return exact.NewStriped(cond, 0)
	})
	if err != nil {
		return ServeRow{}, err
	}
	sc := server.Config{
		Addr:           "127.0.0.1:0",
		Schema:         schema,
		Engine:         eng,
		QueueDepth:     cfg.Queue,
		Workers:        workers,
		DispatchShards: cfg.DispatchShards,
		// Blocking backpressure: with pipelined producers, a busy-refused
		// batch would be re-sent behind its successors and reorder the
		// per-key stream the determinism cross-check depends on.
		BlockOnFull: true,
	}
	if transport == "udp" {
		sc.UDPAddr = "127.0.0.1:0"
	}
	srv, err := server.Listen(sc)
	if err != nil {
		return ServeRow{}, err
	}

	var wg sync.WaitGroup
	errs := make(chan error, cfg.Producers)
	var am allocMeter
	am.start()
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
			switch transport {
			case "udp":
				errs <- serveProduceUDP(cl, srv.UDPAddr(), uint64(p+1), payloads[p])
			default:
				errs <- serveProduceTCP(cl, cfg.Window, payloads[p])
			}
		}(p)
	}
	wg.Wait()
	// Graceful close drains every acknowledged batch; the drain is part
	// of the measured time, so a deep queue cannot fake throughput.
	if err := srv.Close(); err != nil {
		return ServeRow{}, err
	}
	dur := time.Since(start)
	allocs, allocBytes := am.perOp(batchOps(payloads))
	close(errs)
	for err := range errs {
		if err != nil {
			return ServeRow{}, err
		}
	}

	sn := srv.Telemetry().Snapshot()
	if sn.TuplesIngested != int64(cfg.Tuples) {
		return ServeRow{}, fmt.Errorf("serve bench: %s %d workers applied %d of %d tuples", transport, workers, sn.TuplesIngested, cfg.Tuples)
	}
	return ServeRow{
		Transport:      transport,
		Procs:          procs,
		Workers:        workers,
		Producers:      cfg.Producers,
		Tuples:         cfg.Tuples,
		Seconds:        dur.Seconds(),
		TuplesPerSec:   float64(cfg.Tuples) / dur.Seconds(),
		Implications:   st.Count(),
		Rejected:       sn.BatchesRejected,
		PoolSaturation: sn.PoolSaturation,
		AllocsPerOp:    allocs,
		BytesPerOp:     allocBytes,
	}, nil
}

// runServeTenantsVariant measures one (tenants, workers) point: one server
// hosting cfg.Tenants namespaced engines, each producer's session pinned to
// tenant p mod N. Because producers own disjoint key sets, partitioning
// producers across tenants partitions keys across tenants, and the sum of
// per-tenant exact counts must equal the single-engine variants' count.
func runServeTenantsVariant(cfg ServeConfig, schema *stream.Schema, payloads [][]encBatch, procs, workers int) (ServeRow, error) {
	striped := func(cond imps.Conditions) (imps.Estimator, error) {
		return exact.NewStriped(cond, 0)
	}
	tcfgs := make([]tenant.Config, cfg.Tenants)
	for i := range tcfgs {
		tcfgs[i] = tenant.Config{
			Name:    fmt.Sprintf("t%d", i),
			Queries: []string{serveSQL},
			Backend: "exact-striped",
		}
	}
	srv, err := server.Listen(server.Config{
		Addr:           "127.0.0.1:0",
		Schema:         schema,
		Engine:         query.NewEngine(schema), // default tenant: present, idle
		QueueDepth:     cfg.Queue,
		Workers:        workers,
		DispatchShards: cfg.DispatchShards,
		BlockOnFull:    true,
		Tenants:        tcfgs,
		Backends:       tenant.Backends{"exact-striped": striped},
	})
	if err != nil {
		return ServeRow{}, err
	}

	var wg sync.WaitGroup
	errs := make(chan error, cfg.Producers)
	var am allocMeter
	am.start()
	start := time.Now()
	for p := 0; p < cfg.Producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// No token key on the bench server: authentication pins the
			// session, the empty key skips the HMAC check.
			cl, err := client.DialTenant(srv.Addr(), schema, fmt.Sprintf("t%d", p%cfg.Tenants), "", client.Options{
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
			errs <- serveProduceTCP(cl, cfg.Window, payloads[p])
		}(p)
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		return ServeRow{}, err
	}
	dur := time.Since(start)
	allocs, allocBytes := am.perOp(batchOps(payloads))
	close(errs)
	for err := range errs {
		if err != nil {
			return ServeRow{}, err
		}
	}

	sn := srv.Telemetry().Snapshot()
	if sn.TuplesIngested != int64(cfg.Tuples) {
		return ServeRow{}, fmt.Errorf("serve bench: %d tenants applied %d of %d tuples", cfg.Tenants, sn.TuplesIngested, cfg.Tuples)
	}
	var count float64
	for i := range tcfgs {
		eng, ok := srv.TenantEngine(tcfgs[i].Name)
		if !ok {
			return ServeRow{}, fmt.Errorf("serve bench: tenant %s missing after close", tcfgs[i].Name)
		}
		count += eng.Statements()[0].Count()
	}
	return ServeRow{
		Transport:      "tenants",
		Tenants:        cfg.Tenants,
		Procs:          procs,
		Workers:        workers,
		Producers:      cfg.Producers,
		Tuples:         cfg.Tuples,
		Seconds:        dur.Seconds(),
		TuplesPerSec:   float64(cfg.Tuples) / dur.Seconds(),
		Implications:   count,
		Rejected:       sn.BatchesRejected,
		PoolSaturation: sn.PoolSaturation,
		AllocsPerOp:    allocs,
		BytesPerOp:     allocBytes,
	}, nil
}

// runServeFleetVariant measures one (fleet, workers) point: cfg.Leaves leaf
// servers behind a coordinator front-end, producers feeding the front-end
// exactly as they would a single server. The timed region runs from first
// send through the coordinator's Flush — the fleet-wide quiesce — so
// journal depth cannot fake throughput.
func runServeFleetVariant(cfg ServeConfig, schema *stream.Schema, payloads [][]encBatch, procs, workers int) (ServeRow, error) {
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
			return ServeRow{}, err
		}
		srv, err := server.Listen(server.Config{
			Addr:           "127.0.0.1:0",
			Schema:         schema,
			Engine:         eng,
			QueueDepth:     cfg.Queue,
			Workers:        workers,
			DispatchShards: cfg.DispatchShards,
			BlockOnFull:    true,
		})
		if err != nil {
			closeLeaves()
			return ServeRow{}, err
		}
		leaves = append(leaves, srv)
		specs[i] = coord.LeafSpec{Name: fmt.Sprintf("leaf%d", i), Addr: srv.Addr()}
	}
	co, err := coord.New(coord.Config{
		Schema:      schema,
		Statements:  []string{serveSQL},
		Leaves:      specs,
		FlushTuples: cfg.Batch,
	})
	if err != nil {
		closeLeaves()
		return ServeRow{}, err
	}
	fe, err := coord.Serve(co, "127.0.0.1:0")
	if err != nil {
		co.Close()
		closeLeaves()
		return ServeRow{}, err
	}

	var wg sync.WaitGroup
	errs := make(chan error, cfg.Producers)
	var am allocMeter
	am.start()
	start := time.Now()
	for p := 0; p < cfg.Producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cl, err := client.Dial(fe.Addr(), schema, client.Options{Conns: 1})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			errs <- serveProduceTCP(cl, cfg.Window, payloads[p])
		}(p)
	}
	wg.Wait()
	flushErr := co.Flush()
	dur := time.Since(start)
	allocs, allocBytes := am.perOp(batchOps(payloads))
	close(errs)
	for err := range errs {
		if err != nil {
			fe.Close()
			co.Close()
			closeLeaves()
			return ServeRow{}, err
		}
	}
	if flushErr != nil {
		fe.Close()
		co.Close()
		closeLeaves()
		return ServeRow{}, flushErr
	}
	q, err := co.Query(0)
	fe.Close()
	co.Close()
	var rejected, saturation int64
	for _, srv := range leaves {
		if cerr := srv.Close(); cerr != nil && err == nil {
			err = cerr
		}
		sn := srv.Telemetry().Snapshot()
		rejected += sn.BatchesRejected
		saturation += sn.PoolSaturation
	}
	if err != nil {
		return ServeRow{}, err
	}
	if q.Tuples != int64(cfg.Tuples) {
		return ServeRow{}, fmt.Errorf("serve bench: fleet of %d applied %d of %d tuples", cfg.Leaves, q.Tuples, cfg.Tuples)
	}
	return ServeRow{
		Transport:      "fleet",
		Procs:          procs,
		Workers:        workers,
		Producers:      cfg.Producers,
		Tuples:         cfg.Tuples,
		Seconds:        dur.Seconds(),
		TuplesPerSec:   float64(cfg.Tuples) / dur.Seconds(),
		Implications:   q.Count,
		Rejected:       rejected,
		PoolSaturation: saturation,
		AllocsPerOp:    allocs,
		BytesPerOp:     allocBytes,
	}, nil
}

// serveProduceTCP streams batches over one pipelined connection, keeping up
// to window batches in flight. The server runs with BlockOnFull, so no
// batch is ever busy-refused and re-sent out of order; a non-zero Rejected
// row would mean that contract broke, not that the producer retried.
func serveProduceTCP(cl *client.Client, window int, batches []encBatch) error {
	pend := make([]*client.PendingIngest, 0, window)
	for _, b := range batches {
		if len(pend) == window {
			if err := pend[0].Wait(); err != nil {
				return err
			}
			copy(pend, pend[1:])
			pend = pend[:len(pend)-1]
		}
		pi, err := cl.IngestAsync(b.payload, b.n)
		if err != nil {
			return err
		}
		pend = append(pend, pi)
	}
	for _, pi := range pend {
		if err := pi.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// serveProduceUDP streams batches over the datagram lane. Per-source
// sequencing makes the apply order loss- and reorder-proof, so the
// determinism cross-check holds on this path by construction.
func serveProduceUDP(cl *client.Client, udpAddr string, source uint64, batches []encBatch) error {
	// A wide window (still inside the server's 256-datagram reorder
	// window) with sparse polls keeps the producer off the synchronous
	// ack round trip; the watermark mops up at Flush.
	ui, err := cl.DialUDP(udpAddr, client.UDPOptions{Source: source, Window: 128, PollEvery: 32})
	if err != nil {
		return err
	}
	defer ui.Close()
	for _, b := range batches {
		if err := ui.Send(b.payload); err != nil {
			return err
		}
	}
	return ui.Flush()
}

// PrintServe writes the serving-layer throughput table.
func PrintServe(w io.Writer, cfg ServeConfig, rows []ServeRow) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "Serving-layer ingest throughput (%d tuples, batch %d, %d producers, window %d)\n",
		cfg.Tuples, cfg.Batch, cfg.Producers, cfg.Window)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "transport\tprocs\tworkers\ttuples/s\tseconds\trejected\tpool-saturation\tallocs/op\tKiB/op\timplications")
	for _, r := range rows {
		tr := r.Transport
		if r.Tenants > 0 {
			tr = fmt.Sprintf("tenants(%d)", r.Tenants)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f\t%.3f\t%d\t%d\t%.1f\t%.1f\t%.1f\n",
			tr, r.Procs, r.Workers, r.TuplesPerSec, r.Seconds, r.Rejected, r.PoolSaturation, r.AllocsPerOp, r.BytesPerOp/1024, r.Implications)
	}
	tw.Flush()
}

// serveReport is the JSON schema of -json output.
type serveReport struct {
	Tuples    int        `json:"tuples"`
	Batch     int        `json:"batch"`
	Producers int        `json:"producers"`
	Window    int        `json:"window"`
	Rows      []ServeRow `json:"rows"`
}

// WriteServeJSON writes the rows as an indented JSON report.
func WriteServeJSON(w io.Writer, cfg ServeConfig, rows []ServeRow) error {
	cfg = cfg.withDefaults()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(serveReport{
		Tuples:    cfg.Tuples,
		Batch:     cfg.Batch,
		Producers: cfg.Producers,
		Window:    cfg.Window,
		Rows:      rows,
	})
}

// GateServe compares fresh serve rows against a committed baseline report
// and fails on a regression beyond tolerance (a fraction, e.g. 0.25), on
// either axis the bench records: the best tuples/sec per transport must not
// fall below the baseline's floor, and the lowest allocs-per-batch per
// transport must not rise above the baseline's ceiling. The envelope is
// compared, not individual rows — those move with scheduler noise.
// Baselines written before the allocation metrics existed carry zeros
// there, which gate nothing.
func GateServe(baseline io.Reader, rows []ServeRow, tolerance float64) error {
	var base serveReport
	if err := json.NewDecoder(baseline).Decode(&base); err != nil {
		return fmt.Errorf("gate: decoding baseline: %w", err)
	}
	transport := func(r ServeRow) string {
		if r.Transport == "" {
			return "tcp" // pre-transport baseline rows
		}
		return r.Transport
	}
	best := func(rs []ServeRow) map[string]float64 {
		m := make(map[string]float64)
		for _, r := range rs {
			if tr := transport(r); r.TuplesPerSec > m[tr] {
				m[tr] = r.TuplesPerSec
			}
		}
		return m
	}
	// leanest is the envelope on the allocation axis: the lowest non-zero
	// allocs/op per transport (zero means the metric was not recorded).
	leanest := func(rs []ServeRow) map[string]float64 {
		m := make(map[string]float64)
		for _, r := range rs {
			if r.AllocsPerOp <= 0 {
				continue
			}
			tr := transport(r)
			if cur, ok := m[tr]; !ok || r.AllocsPerOp < cur {
				m[tr] = r.AllocsPerOp
			}
		}
		return m
	}
	baseBest, curBest := best(base.Rows), best(rows)
	var failures []string
	for tr, b := range baseBest {
		cur, ok := curBest[tr]
		if !ok {
			continue // baseline transport not re-run; nothing to compare
		}
		floor := b * (1 - tolerance)
		if cur < floor {
			failures = append(failures, fmt.Sprintf("%s: %.0f tuples/s < floor %.0f (baseline %.0f, tolerance %.0f%%)",
				tr, cur, floor, b, tolerance*100))
		}
	}
	baseLean, curLean := leanest(base.Rows), leanest(rows)
	for tr, b := range baseLean {
		cur, ok := curLean[tr]
		if !ok {
			continue // transport not re-run, or metrics absent in this run
		}
		ceiling := b * (1 + tolerance)
		if cur > ceiling {
			failures = append(failures, fmt.Sprintf("%s: %.1f allocs/op > ceiling %.1f (baseline %.1f, tolerance %.0f%%)",
				tr, cur, ceiling, b, tolerance*100))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("gate: bench regression: %s", strings.Join(failures, "; "))
	}
	return nil
}
