package coord

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"implicate/internal/checkpoint"
	"implicate/internal/client"
	"implicate/internal/core"
	"implicate/internal/imps"
	"implicate/internal/proto"
	"implicate/internal/query"
	"implicate/internal/server"
	"implicate/internal/stream"
)

// The fleet's statement set: statement 0's A-projection is the route key.
// Both statements must be plain fixed-seed sketches — the merge fan-in
// requires it — and their conditions differ so they never share.
var fleetSQL = []string{
	`SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B WITH SUPPORT >= 2, MULTIPLICITY <= 2, CONFIDENCE >= 0.8 TOP 1`,
	`SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.8 TOP 1`,
}

const fleetSeed = 11

func fleetSchema(t *testing.T) *stream.Schema {
	t.Helper()
	s, err := stream.NewSchema("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fleet is an in-process leaf fleet with checkpointed servers and a
// restart-from-checkpoint hook — the harness both the kill tests and the
// shadow comparison run on.
type fleet struct {
	t      *testing.T
	schema *stream.Schema
	dir    string

	// traceSpans, when positive, arms every leaf's span ring (and, via
	// startCoordinator, the coordinator's) — the trace-aware fleet the
	// cross-node trace tests run on.
	traceSpans int

	// stall, when non-nil, runs at the top of the restart hook — a test
	// blocks in it to hold a leaf down.
	stall func(name string)

	mu      sync.Mutex
	servers map[string]*server.Server
}

func newFleet(t *testing.T, schema *stream.Schema) *fleet {
	return &fleet{t: t, schema: schema, dir: t.TempDir(), servers: make(map[string]*server.Server)}
}

func (f *fleet) backend() query.Backend {
	return func(cond imps.Conditions) (imps.Estimator, error) {
		return core.NewSketch(cond, core.Options{Seed: fleetSeed})
	}
}

func (f *fleet) engine() (*query.Engine, error) {
	eng := query.NewEngine(f.schema)
	for _, sql := range fleetSQL {
		if _, err := eng.RegisterSQL(sql, f.backend()); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

func (f *fleet) ckptPath(name string) string { return filepath.Join(f.dir, name+".ckpt") }

func (f *fleet) listen(name string, eng *query.Engine) (string, error) {
	srv, err := server.Listen(server.Config{
		Addr:            "127.0.0.1:0",
		Schema:          f.schema,
		Engine:          eng,
		Workers:         2,
		CheckpointPath:  f.ckptPath(name),
		CheckpointEvery: 700,
		TraceSpans:      f.traceSpans,
	})
	if err != nil {
		return "", err
	}
	f.mu.Lock()
	f.servers[name] = srv
	f.mu.Unlock()
	return srv.Addr(), nil
}

// start boots a fresh leaf.
func (f *fleet) start(name string) string {
	f.t.Helper()
	eng, err := f.engine()
	if err != nil {
		f.t.Fatal(err)
	}
	addr, err := f.listen(name, eng)
	if err != nil {
		f.t.Fatal(err)
	}
	return addr
}

// restart is the coordinator's recovery hook: rebuild the leaf's engine
// from its latest checkpoint (fresh when it never checkpointed) and listen
// on a NEW port — recovery must not depend on the address surviving.
func (f *fleet) restart(name string) (string, error) {
	if f.stall != nil {
		f.stall(name)
	}
	f.mu.Lock()
	old := f.servers[name]
	f.mu.Unlock()
	if old != nil {
		old.Kill() // idempotent when the test already killed it
	}
	var eng *query.Engine
	snap, err := checkpoint.Read(f.ckptPath(name))
	switch {
	case err == nil:
		eng, err = checkpoint.Restore(snap, f.schema, func(q query.Query, kind string) (query.Backend, error) {
			return f.backend(), nil
		})
		if err != nil {
			return "", err
		}
	case errors.Is(err, os.ErrNotExist):
		if eng, err = f.engine(); err != nil {
			return "", err
		}
	default:
		return "", err
	}
	return f.listen(name, eng)
}

func (f *fleet) kill(name string) {
	f.mu.Lock()
	srv := f.servers[name]
	f.mu.Unlock()
	if srv == nil {
		f.t.Fatalf("no leaf %s to kill", name)
	}
	srv.Kill()
}

func (f *fleet) closeAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, srv := range f.servers {
		srv.Kill()
	}
}

// startCoordinator builds a coordinator over n fresh leaves of fl.
func startCoordinator(t *testing.T, fl *fleet, n int, prefix string) *Coordinator {
	t.Helper()
	specs := make([]LeafSpec, n)
	for i := range specs {
		name := fmt.Sprintf("%s%d", prefix, i)
		specs[i] = LeafSpec{Name: name, Addr: fl.start(name)}
	}
	co, err := New(Config{
		Schema:            fl.schema,
		Statements:        fleetSQL,
		Leaves:            specs,
		VirtualPartitions: 64,
		FlushTuples:       100,
		ProbeEvery:        10 * time.Millisecond,
		ProbeTimeout:      250 * time.Millisecond,
		ProbeFails:        2,
		Restart:           fl.restart,
		ClientOptions:     client.Options{Conns: 1},
		Logf:              t.Logf,
		TraceSpans:        fl.traceSpans,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co
}

// fleetTuples is the test stream: enough key repetition to exercise
// sketch overflow behavior, deterministic by construction.
func fleetTuples(n int) []stream.Tuple {
	ts := make([]stream.Tuple, n)
	for i := range ts {
		ts[i] = stream.Tuple{fmt.Sprintf("s%d", i%97), fmt.Sprintf("d%d", (i*7)%13)}
	}
	return ts
}

// TestKillAndRecoverBitIdentity is the fleet's determinism contract: kill
// one leaf mid-stream, and after recovery the coordinator's merged root
// state — the marshalled merged sketch, the counts, the tuple totals — is
// bit-identical to an uncrashed shadow fleet fed the same stream.
func TestKillAndRecoverBitIdentity(t *testing.T) {
	for _, leaves := range []int{2, 4} {
		for _, victim := range []int{0, leaves - 1} {
			t.Run(fmt.Sprintf("leaves=%d/kill=%d", leaves, victim), func(t *testing.T) {
				schema := fleetSchema(t)
				flMain := newFleet(t, schema)
				flShadow := newFleet(t, schema)
				t.Cleanup(flMain.closeAll)
				t.Cleanup(flShadow.closeAll)

				main := startCoordinator(t, flMain, leaves, "leaf")
				shadow := startCoordinator(t, flShadow, leaves, "leaf") // same names: identical routing

				tuples := fleetTuples(6000)
				const chunk = 250
				killAt := len(tuples) / 3
				for off := 0; off < len(tuples); off += chunk {
					end := min(off+chunk, len(tuples))
					if err := main.Ingest(tuples[off:end]); err != nil {
						t.Fatal(err)
					}
					if err := shadow.Ingest(tuples[off:end]); err != nil {
						t.Fatal(err)
					}
					if off <= killAt && killAt < end {
						flMain.kill(fmt.Sprintf("leaf%d", victim))
					}
				}
				if err := main.Flush(); err != nil {
					t.Fatalf("main flush: %v", err)
				}
				if err := shadow.Flush(); err != nil {
					t.Fatalf("shadow flush: %v", err)
				}

				for stmt := range fleetSQL {
					got, err := main.Snapshot(stmt)
					if err != nil {
						t.Fatalf("main snapshot %d: %v", stmt, err)
					}
					want, err := shadow.Snapshot(stmt)
					if err != nil {
						t.Fatalf("shadow snapshot %d: %v", stmt, err)
					}
					if got.Tuples != int64(len(tuples)) {
						t.Errorf("stmt %d: merged tuples %d, want %d", stmt, got.Tuples, len(tuples))
					}
					if !bytes.Equal(got.Sketch, want.Sketch) {
						t.Errorf("stmt %d: merged sketch diverged from the uncrashed shadow", stmt)
					}
					gq, err := main.Query(stmt)
					if err != nil {
						t.Fatal(err)
					}
					wq, err := shadow.Query(stmt)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(gq.Count) != math.Float64bits(wq.Count) {
						t.Errorf("stmt %d: count %v, shadow %v", stmt, gq.Count, wq.Count)
					}
				}

				st := main.Status()
				if got := st.Leaves[victim]; got.State != proto.LeafUp || got.Epoch < 1 {
					t.Errorf("killed leaf status = state %d epoch %d, want up with epoch >= 1", got.State, got.Epoch)
				}
				var parts uint32
				var journaled int64
				for _, l := range st.Leaves {
					parts += l.Parts
					journaled += l.Journaled
				}
				if parts != st.VirtualPartitions {
					t.Errorf("leaves own %d partitions, route table has %d", parts, st.VirtualPartitions)
				}
				if journaled != int64(len(tuples)) {
					t.Errorf("journals cover %d tuples, ingested %d", journaled, len(tuples))
				}
			})
		}
	}
}

// TestFrontendServesWireProtocol drives a coordinator through its TCP
// front-end with the ordinary pooled client: ingest, query, snapshot,
// cluster — and checks the merged answers equal a serial single-engine run
// of the same stream.
func TestFrontendServesWireProtocol(t *testing.T) {
	schema := fleetSchema(t)
	fl := newFleet(t, schema)
	t.Cleanup(fl.closeAll)
	co := startCoordinator(t, fl, 3, "leaf")
	fe, err := Serve(co, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })

	cl, err := client.Dial(fe.Addr(), schema, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	tuples := fleetTuples(2000)
	serial, err := fl.engine()
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 400
	for off := 0; off < len(tuples); off += chunk {
		end := min(off+chunk, len(tuples))
		if err := cl.IngestBatch(tuples[off:end]); err != nil {
			t.Fatal(err)
		}
		serial.ProcessBatch(tuples[off:end])
	}
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}

	for stmt := range fleetSQL {
		q, err := cl.Query(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if q.Tuples != int64(len(tuples)) {
			t.Errorf("stmt %d: tuples %d, want %d", stmt, q.Tuples, len(tuples))
		}
		want := serial.Statements()[stmt].Count()
		if math.Float64bits(q.Count) != math.Float64bits(want) {
			t.Errorf("stmt %d: merged count %v, serial count %v", stmt, q.Count, want)
		}
		snap, err := cl.Snapshot(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Kind != "nips" {
			t.Errorf("stmt %d: snapshot kind %q, want nips", stmt, snap.Kind)
		}
	}

	cs, err := cl.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Leaves) != 3 || cs.VirtualPartitions != 64 {
		t.Errorf("cluster status = %d leaves / %d partitions, want 3/64", len(cs.Leaves), cs.VirtualPartitions)
	}
	if err := cl.Ping(time.Second); err != nil {
		t.Errorf("ping through the front-end: %v", err)
	}
}

// TestRouteTableRendezvousStability: growing the fleet may move partitions
// only TO the new leaf — survivors keep everything they had.
func TestRouteTableRendezvousStability(t *testing.T) {
	schema := fleetSchema(t)
	names := []string{"a", "b", "c"}
	rt3, err := newRouteTable(schema, []string{"A"}, nil, 128, names)
	if err != nil {
		t.Fatal(err)
	}
	rt4, err := newRouteTable(schema, []string{"A"}, nil, 128, append(names, "d"))
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for p := 0; p < 128; p++ {
		if rt4.owner[p] != rt3.owner[p] {
			if rt4.owner[p] != 3 {
				t.Fatalf("partition %d moved from leaf %d to surviving leaf %d", p, rt3.owner[p], rt4.owner[p])
			}
			moved++
		}
	}
	if moved == 0 {
		t.Error("adding a leaf moved no partitions at all")
	}
	if moved > 128/2 {
		t.Errorf("adding one leaf to three moved %d/128 partitions", moved)
	}
}

// TestRouteTableValidation rejects the configurations the arithmetic
// silently breaks on.
func TestRouteTableValidation(t *testing.T) {
	schema := fleetSchema(t)
	if _, err := newRouteTable(schema, []string{"A"}, nil, 48, []string{"a"}); err == nil {
		t.Error("non-power-of-two partition count accepted")
	}
	if _, err := newRouteTable(schema, []string{"A"}, nil, 2, []string{"a", "b", "c"}); err == nil {
		t.Error("fewer partitions than leaves accepted")
	}
	if _, err := newRouteTable(schema, []string{"nope"}, nil, 16, []string{"a"}); err == nil {
		t.Error("unknown route attribute accepted")
	}
}

// TestCoordinatorRejectsWindowedStatements: windowed state cannot merge.
func TestCoordinatorRejectsWindowedStatements(t *testing.T) {
	schema := fleetSchema(t)
	_, err := New(Config{
		Schema:     schema,
		Statements: []string{`SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B WITH SUPPORT >= 2, MULTIPLICITY <= 2, CONFIDENCE >= 0.8 TOP 1 WINDOW 100`},
		Leaves:     []LeafSpec{{Name: "a", Addr: "127.0.0.1:1"}},
	})
	if err == nil {
		t.Fatal("windowed statement accepted")
	}
}
