package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"implicate"
)

// TestFleetObsSmoke is the end-to-end fleet observability path, through
// the test binary: impcoordd with -admin and -trace-spans over three
// trace-aware leaves, producers ingesting through the wire front-end, then
// one assembled cross-node trace asserted over the Trace RPC (coordinator
// delivery roots adopting leaf-side spans) and a /metrics scrape asserted to
// carry the coordinator's per-leaf rows and the rolled-up leaf series.
func TestFleetObsSmoke(t *testing.T) {
	const (
		nLeaves = 3
		total   = 3000
		batch   = 200
	)
	schema := mustSchema(t, "A", "B")

	srvs := make([]*implicate.Server, nLeaves)
	var leafFlag []string
	for i := range srvs {
		eng := smokeEngine(t, schema)
		srv, err := implicate.Serve(implicate.ServerConfig{
			Addr:       "127.0.0.1:0",
			Schema:     schema,
			Engine:     eng,
			Workers:    2,
			TraceSpans: 2048,
		})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		leafFlag = append(leafFlag, fmt.Sprintf("leaf%d=%s", i, srv.Addr()))
	}
	defer func() {
		for _, srv := range srvs {
			srv.Kill()
		}
	}()

	cfg := &config{
		listen:     "127.0.0.1:0",
		admin:      "127.0.0.1:0",
		leaves:     strings.Join(leafFlag, ","),
		schema:     "A, B",
		queries:    smokeSQL,
		probeEvery: 10 * time.Millisecond, probeTimeout: 250 * time.Millisecond,
		probeFails: 2, drainTimeout: 30 * time.Second,
		traceSpans: 4096,
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	ready := make(chan coordAddrs, 1)
	stop := make(chan struct{})
	var out strings.Builder
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(cfg, ready, stop, &out) }()
	var addrs coordAddrs
	select {
	case addrs = <-ready:
	case err := <-serveErr:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator did not come up")
	}
	if addrs.admin == "" {
		t.Fatal("no admin address with -admin set")
	}

	cl, err := implicate.Dial(addrs.front, schema, implicate.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tuples := smokeTuples(total)
	for off := 0; off < total; off += batch {
		if err := cl.IngestBatch(tuples[off : off+batch]); err != nil {
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
			t.Fatalf("fleet stuck at %d of %d tuples", res.Tuples, total)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// One assembled cross-node trace over the wire: coordinator delivery
	// spans as roots, and for every leaf at least one leaf-side span whose
	// trace and parent ids name a delivery — the cross-node link the traced
	// frames carried.
	spans, err := cl.FleetTrace()
	if err != nil {
		t.Fatal(err)
	}
	delivers := make(map[uint64]implicate.FleetSpan)
	nodes := make(map[string]bool)
	for _, s := range spans {
		nodes[s.Node] = true
		if s.Node == "coord" && s.Kind.String() == "deliver" {
			delivers[s.ID] = s
		}
	}
	if len(delivers) == 0 {
		t.Fatalf("no delivery spans in the fleet trace (%d spans, nodes %v)", len(spans), nodes)
	}
	adopted := make(map[string]int)
	for _, s := range spans {
		if s.Node == "coord" || s.Trace == 0 {
			continue
		}
		d, ok := delivers[s.Parent]
		if !ok || d.Trace != s.Trace {
			t.Fatalf("leaf span %s/%v not parented under a delivery: %+v", s.Node, s.Kind, s)
		}
		adopted[s.Node]++
	}
	for i := 0; i < nLeaves; i++ {
		if adopted[fmt.Sprintf("leaf%d", i)] == 0 {
			t.Errorf("leaf%d contributed no spans to the assembled trace", i)
		}
	}

	// The /metrics scrape: coordinator-side per-leaf rows and the rolled-up
	// leaf series, one row per leaf.
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addrs.admin + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	metrics := get("/metrics")
	for i := 0; i < nLeaves; i++ {
		for _, series := range []string{
			fmt.Sprintf(`imps_coord_leaf_up{leaf="leaf%d"} 1`, i),
			fmt.Sprintf(`imps_coord_leaf_journal_tuples_total{leaf="leaf%d"}`, i),
			fmt.Sprintf(`imps_coord_leaf_deliveries_total{leaf="leaf%d"}`, i),
			fmt.Sprintf(`imps_leaf_tuples_ingested_total{leaf="leaf%d"}`, i),
		} {
			if !strings.Contains(metrics, series) {
				t.Errorf("/metrics missing %q", series)
			}
		}
	}
	if !strings.Contains(metrics, "imps_coord_virtual_partitions 64") {
		t.Error("/metrics missing the route-table gauge")
	}
	if !strings.Contains(metrics, "imps_tuples_ingested_total 3000") {
		t.Error("/metrics missing the coordinator's own routed-tuple counter")
	}
	if hz := get("/healthz"); !strings.HasPrefix(hz, "ok\n") || !strings.Contains(hz, "leaf leaf2 state=up") {
		t.Errorf("/healthz = %q", hz)
	}
	if fleet := get("/fleet"); !strings.Contains(fleet, `"name": "leaf0"`) {
		t.Errorf("/fleet missing leaf rows: %s", fleet)
	}

	close(stop)
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not shut down")
	}
}
