package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"implicate"
	"implicate/internal/stream"
)

// TestObsSmoke is the observability smoke path: start impserved with the
// admin endpoint and tracing on, ingest through the wire, and require
// /metrics, /healthz and /trace to serve the key series.
func TestObsSmoke(t *testing.T) {
	const total = 20_000
	cfg := &config{
		addr:       "127.0.0.1:0",
		schema:     "Source, Destination",
		queries:    queryList{`SELECT COUNT(DISTINCT Source) FROM traffic WHERE Source IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2`},
		backend:    "nips",
		queue:      16,
		workers:    4,
		admin:      "127.0.0.1:0",
		traceSpans: 1024,
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}

	ready := make(chan addrs, 1)
	stop := make(chan struct{})
	var out strings.Builder
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(cfg, ready, stop, &out) }()
	var a addrs
	select {
	case a = <-ready:
	case err := <-serveErr:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not come up")
	}
	if a.admin == "" {
		t.Fatal("no admin address reported")
	}

	schema := mustSchema(t, "Source", "Destination")
	cl, err := implicate.Dial(a.server, schema, implicate.ClientOptions{BusyRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	batch := make([]stream.Tuple, 1000)
	for off := 0; off < total; off += len(batch) {
		for i := range batch {
			n := off + i
			batch[i] = stream.Tuple{fmt.Sprintf("s%d", n%4000), fmt.Sprintf("d%d", (n%4000)%9)}
		}
		if err := cl.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := cl.Query(0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tuples == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server stuck at %d of %d tuples", res.Tuples, total)
		}
		time.Sleep(time.Millisecond)
	}

	hc := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) string {
		t.Helper()
		resp, err := hc.Get("http://" + a.admin + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d\n%s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	if body := get("/healthz"); body != "ok\n" {
		t.Fatalf("/healthz: %q", body)
	}
	metrics := get("/metrics")
	kind := "nips" // -backend nips gives a sketch a lock stripe per core
	if runtime.GOMAXPROCS(0) > 1 {
		kind = "sharded"
	}
	for _, want := range []string{
		fmt.Sprintf("imps_tuples_ingested_total %d", total),
		"imps_queue_high_water",
		"imps_pool_saturation_total",
		`imps_worker_units_total{worker="3"}`,
		`imps_rpc_latency_seconds{rpc="IngestBatch",quantile="0.5"}`,
		`imps_stmt_bitmap_fill{stmt="0",kind="` + kind + `",shared="false"}`,
		`imps_stmt_fringe_evictions_total{stmt="0"`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	trace := get("/trace")
	for _, kind := range []string{`"plan"`, `"dispatch"`, `"apply"`, `"rpc"`} {
		if !strings.Contains(trace, kind) {
			t.Errorf("/trace missing %s spans:\n%.400s", kind, trace)
		}
	}

	// The Trace RPC serves the same ring over the wire protocol.
	spans, err := cl.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("Trace RPC returned no spans")
	}

	// dumpTrace (the SIGQUIT renderer) formats every span.
	var dump strings.Builder
	dumpTrace(&dump, spans)
	if !strings.Contains(dump.String(), fmt.Sprintf("--- trace: %d spans ---", len(spans))) ||
		!strings.Contains(dump.String(), "apply") {
		t.Errorf("trace dump malformed:\n%.400s", dump.String())
	}

	close(stop)
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}
}
