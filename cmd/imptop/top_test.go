package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"implicate"
	"implicate/internal/stream"
	"implicate/internal/telemetry"
)

func TestParseAndValidate(t *testing.T) {
	cfg, rest, err := parseFlags([]string{"-addr", "x:1", "-interval", "250ms", "-count", "3", "-plain"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "x:1" || cfg.interval != 250*time.Millisecond || cfg.count != 3 || !cfg.plain || len(rest) != 0 {
		t.Fatalf("parsed %+v %v", cfg, rest)
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []config{
		{addr: "", interval: time.Second},
		{addr: "x:1", interval: 0},
		{addr: "x:1", interval: time.Second, count: -1},
	} {
		if err := bad.validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

func TestRender(t *testing.T) {
	var set telemetry.Set
	set.AddTuples(5000)
	set.AddBatch()
	set.ObserveQueueDepth(3)
	set.ConfigureWorkers(2)
	set.AddWorkerTask(0, 900)
	set.AddWorkerTask(1, 100)
	set.Observe(telemetry.RPCIngest, 800*time.Microsecond)

	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	prev := frame{when: base, stats: func() implicate.ServerStats {
		var s telemetry.Set
		s.AddTuples(3000)
		return s.Snapshot()
	}()}
	cur := frame{
		when:  base.Add(2 * time.Second),
		stats: set.Snapshot(),
		health: []implicate.HealthReport{
			{Stmt: 0, Kind: "nips", Tuples: 5000, MemEntries: 64, MemBytes: 3 << 20,
				BitmapFill: 0.25, LeftmostZero: 4.5, FringeTracked: 40, FringeEvictions: 2, RelErr: 0.08},
			{Stmt: 1, Kind: "exact", Shared: true, Tuples: 5000, MemEntries: 10, MemBytes: 512,
				RelErr: math.Inf(1)},
		},
	}

	var b strings.Builder
	render(&b, "h:1", &prev, cur)
	out := b.String()
	for _, want := range []string{
		"imptop — h:1",
		"tuples=5000 (1000/s)", // (5000-3000)/2s
		"high-water=3",
		"IngestBatch",
		"skew",
		"1.80", // worker 0: 900 units of mean 500
		"nips",
		"exact*",
		"25.0%",
		"3.0MiB",
		"0.080",
		"shared estimator",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}

	// First frame: no rates, no crash on nil prev.
	b.Reset()
	render(&b, "h:1", nil, cur)
	if !strings.Contains(b.String(), "tuples=5000 (-)") {
		t.Errorf("first frame should render '-' rates:\n%s", b.String())
	}
}

// TestRunLive drives imptop against a real in-process server: two plain
// frames over a short interval while tuples flow.
func TestRunLive(t *testing.T) {
	schema, err := implicate.NewSchema("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	eng := implicate.NewEngine(schema)
	if _, err := eng.RegisterSQL(
		`SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B WITH SUPPORT >= 2, MULTIPLICITY <= 2`,
		implicate.SketchBackend(implicate.Options{Seed: 3})); err != nil {
		t.Fatal(err)
	}
	srv, err := implicate.Serve(implicate.ServerConfig{Addr: "127.0.0.1:0", Schema: schema, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := implicate.Dial(srv.Addr(), schema, implicate.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tuples := make([]stream.Tuple, 400)
	for i := range tuples {
		tuples[i] = stream.Tuple{fmt.Sprintf("s%d", i/2), fmt.Sprintf("d%d", (i/2)%7)}
	}
	if err := cl.IngestBatch(tuples); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	cfg := &config{addr: srv.Addr(), interval: 50 * time.Millisecond, count: 2, plain: true}
	if err := run(cfg, &b, make(chan struct{})); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "imptop — ") != 2 {
		t.Fatalf("want 2 frames:\n%s", out)
	}
	kind := "nips" // SketchBackend gives a sketch a lock stripe per core
	if runtime.GOMAXPROCS(0) > 1 {
		kind = "sharded"
	}
	for _, want := range []string{"tuples=400", kind, "Stats", "Health"} {
		if !strings.Contains(out, want) {
			t.Errorf("live output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[") {
		t.Error("-plain output contains ANSI escapes")
	}
}
