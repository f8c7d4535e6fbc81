package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"implicate"
	"implicate/internal/stream"
)

func TestParseFlags(t *testing.T) {
	cfg, rest, err := parseFlags([]string{"-schema", "A,B", "-q", "q1", "-q", "q2", "-queue", "8", "-workers", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.schema != "A,B" || len(cfg.queries) != 2 || cfg.queries[1] != "q2" || cfg.queue != 8 || cfg.workers != 4 || len(rest) != 0 {
		t.Fatalf("parsed %+v %v", cfg, rest)
	}
	if _, _, err := parseFlags([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestValidateFlagCombinations(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ok.ckpt")
	// A real checkpoint for the resume-positive case.
	eng := implicate.NewEngine(mustSchema(t, "A", "B"))
	if _, err := eng.RegisterSQL(`SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B`, implicate.ExactBackend()); err != nil {
		t.Fatal(err)
	}
	snap, err := implicate.CaptureCheckpoint(eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := implicate.WriteCheckpoint(ckpt, snap); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		cfg     config
		wantErr string
	}{
		{"missing schema", config{queries: queryList{"x"}, queue: 1}, "-schema"},
		{"missing query", config{schema: "A,B", queue: 1}, "missing -q"},
		{"every without checkpoint", config{schema: "A,B", queries: queryList{"x"}, queue: 1, every: 100}, "-checkpoint"},
		{"negative every", config{schema: "A,B", queries: queryList{"x"}, queue: 1, every: -1, checkpoint: "f"}, "-every"},
		{"zero queue", config{schema: "A,B", queries: queryList{"x"}, queue: 0}, "-queue"},
		{"negative workers", config{schema: "A,B", queries: queryList{"x"}, queue: 1, workers: -2}, "-workers"},
		{"negative udp window", config{schema: "A,B", queries: queryList{"x"}, queue: 1, udp: ":0", udpWindow: -1}, "-udp-window"},
		{"zero udp window", config{schema: "A,B", queries: queryList{"x"}, queue: 1, udp: ":0", udpWindow: 0}, "-udp-window"},
		{"udp window without udp ok", config{schema: "A,B", queries: queryList{"x"}, queue: 1, udpWindow: -1}, ""},
		{"resume with q", config{schema: "A,B", resume: ckpt, queries: queryList{"x"}, queue: 1}, "drop -q"},
		{"resume missing file", config{schema: "A,B", resume: filepath.Join(dir, "nope.ckpt"), queue: 1}, "cannot resume"},
		{"plain ok", config{schema: "A,B", queries: queryList{"x"}, queue: 64}, ""},
		{"resume ok", config{schema: "A,B", resume: ckpt, queue: 64}, ""},
		{"every with checkpoint ok", config{schema: "A,B", queries: queryList{"x"}, queue: 1, every: 5, checkpoint: "f"}, ""},
	}
	for _, tc := range cases {
		err := tc.cfg.validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: invalid combination accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func mustSchema(t *testing.T, names ...string) *implicate.Schema {
	t.Helper()
	s, err := implicate.NewSchema(names...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildEngineErrors(t *testing.T) {
	schema := mustSchema(t, "A", "B")
	if _, err := buildEngine(&config{backend: "zzz", queries: queryList{"x"}}, schema); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("unknown backend: %v", err)
	}
	if _, err := buildEngine(&config{backend: "exact", queries: queryList{"not sql"}}, schema); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := buildEngine(&config{resume: filepath.Join(t.TempDir(), "missing")}, schema); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

// TestServeSmoke is the end-to-end smoke path, through the test binary:
// start a server on loopback with a 4-worker pipeline over the striped
// exact backend, ingest 100k tuples through the wire protocol, query it,
// shut down gracefully, and require the shutdown checkpoint to record every
// acknowledged tuple.
func TestServeSmoke(t *testing.T) {
	const total = 100_000
	ckpt := filepath.Join(t.TempDir(), "smoke.ckpt")
	cfg := &config{
		addr:       "127.0.0.1:0",
		schema:     "Source, Destination",
		queries:    queryList{`SELECT COUNT(DISTINCT Source) FROM traffic WHERE Source IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2`},
		backend:    "exact-striped",
		queue:      16,
		workers:    4,
		checkpoint: ckpt,
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}

	ready := make(chan addrs, 1)
	stop := make(chan struct{})
	var out strings.Builder
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(cfg, ready, stop, &out) }()
	var addr string
	select {
	case a := <-ready:
		addr = a.server
	case err := <-serveErr:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not come up")
	}

	schema := mustSchema(t, "Source", "Destination")
	cl, err := implicate.Dial(addr, schema, implicate.ClientOptions{BusyRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	shadow := implicate.NewEngine(schema)
	shadowStmt, err := shadow.RegisterSQL(cfg.queries[0], implicate.ExactBackend())
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]stream.Tuple, 1000)
	for off := 0; off < total; off += len(batch) {
		for i := range batch {
			n := off + i
			batch[i] = stream.Tuple{fmt.Sprintf("s%d", n%4000), fmt.Sprintf("d%d", (n%4000)%9)}
		}
		if err := cl.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		shadow.ProcessBatch(batch)
	}

	// Poll until the worker has applied everything, then check the answer.
	deadline := time.Now().Add(30 * time.Second)
	var res implicate.QueryResult
	for {
		res, err = cl.Query(0)
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
	if want := shadowStmt.Count(); res.Count != want {
		t.Fatalf("served count %v, want %v", res.Count, want)
	}
	sn, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sn.TuplesIngested != total || sn.Batches != total/1000 {
		t.Fatalf("stats %+v", sn)
	}

	// Graceful shutdown must write the final checkpoint and print the
	// summary.
	close(stop)
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}
	snap, err := implicate.ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Offset != total {
		t.Fatalf("shutdown checkpoint offset %d, want %d", snap.Offset, total)
	}
	if !strings.Contains(out.String(), fmt.Sprintf("tuples=%d", total)) {
		t.Fatalf("summary missing tuple count:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "stmt 0:") {
		t.Fatalf("summary missing statement report:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "pool: 4 workers") {
		t.Fatalf("summary missing pool report:\n%s", out.String())
	}

	// The checkpoint restores into a working engine with the same answer.
	restored, err := implicate.RestoreCheckpoint(snap, schema,
		func(q implicate.Query, kind string) (implicate.Backend, error) { return implicate.ExactBackend(), nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Statements()[0].Count(); got != shadowStmt.Count() {
		t.Fatalf("restored count %v, want %v", got, shadowStmt.Count())
	}
}
