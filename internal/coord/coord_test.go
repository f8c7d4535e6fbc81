package coord

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"implicate/internal/checkpoint"
	"implicate/internal/client"
	"implicate/internal/core"
	"implicate/internal/exact"
	"implicate/internal/gen"
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

// routeSketch is what a fleet of fleet.backend leaves reports as its route
// hash, at m bitmaps.
func routeSketch(m int) *core.Sketch {
	cond := imps.Conditions{MaxMultiplicity: 2, MinSupport: 2, TopC: 1, MinTopConfidence: 0.8}
	return core.MustSketch(cond, core.Options{Seed: fleetSeed, Bitmaps: m})
}

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

	// sql, when non-nil, replaces fleetSQL as the statements every leaf
	// registers and the coordinator serves.
	sql []string

	// drainTimeout, when positive, is the coordinator's DrainTimeout.
	drainTimeout time.Duration

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

func (f *fleet) statements() []string {
	if f.sql != nil {
		return f.sql
	}
	return fleetSQL
}

func (f *fleet) engine() (*query.Engine, error) {
	eng := query.NewEngine(f.schema)
	for _, sql := range f.statements() {
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
	return newCoordinator(t, fl, specs)
}

// newCoordinator builds a coordinator over fl's leaves as specs address
// them.
func newCoordinator(t *testing.T, fl *fleet, specs []LeafSpec) *Coordinator {
	t.Helper()
	co, err := New(Config{
		Schema:        fl.schema,
		Statements:    fl.statements(),
		Leaves:        specs,
		FlushTuples:   100,
		ProbeEvery:    10 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		ProbeFails:    2,
		DrainTimeout:  fl.drainTimeout,
		Restart:       fl.restart,
		ClientOptions: client.Options{Conns: 1},
		Logf:          t.Logf,
		TraceSpans:    fl.traceSpans,
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

// TestRouteTableValidation rejects the configurations the arithmetic
// silently breaks on.
func TestRouteTableValidation(t *testing.T) {
	schema := fleetSchema(t)
	if _, err := newRouteTable(schema, []string{"A"}, routeSketch(2), []string{"a", "b", "c"}); err == nil {
		t.Error("fewer bitmaps than leaves accepted")
	}
	if _, err := newRouteTable(schema, []string{"nope"}, routeSketch(16), []string{"a"}); err == nil {
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

// leafNames is leaf0 .. leaf{n-1}.
func leafNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("leaf%d", i)
	}
	return names
}

// TestRouteTableBoundedLoad pins the assignment's three promises over a
// table of fleet sizes and bitmap counts: shares differ by at most one; the
// table depends on the leaf names, not their order in Leaves; and growing
// the fleet by one leaf moves at most ⌈m/(n+1)⌉+1 bitmaps, every one of them
// to the newcomer.
func TestRouteTableBoundedLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{8, 64, 256} {
		for n := 1; n <= 8; n++ {
			names := leafNames(n)
			owner := assign(names, m)
			share := make([]int, n)
			for _, leaf := range owner {
				share[leaf]++
			}
			lo, hi := slices.Min(share), slices.Max(share)
			if hi-lo > 1 {
				t.Errorf("m=%d n=%d: shares %v differ by more than one", m, n, share)
			}
			if m == 64 && n == 3 && !slices.Equal(share, []int{22, 21, 21}) {
				t.Errorf("m=64 n=3: shares %v, want 22/21/21", share)
			}
			perm := slices.Clone(names)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			for bm, leaf := range assign(perm, m) {
				if perm[leaf] != names[owner[bm]] {
					t.Fatalf("m=%d n=%d: bitmap %d owned by %s under %v, by %s under %v", m, n, bm, perm[leaf], perm, names[owner[bm]], names)
				}
			}
			grown := assign(leafNames(n+1), m)
			moved := 0
			for bm := range owner {
				if grown[bm] != owner[bm] {
					if grown[bm] != n {
						t.Fatalf("m=%d: growing to %d leaves moved bitmap %d from leaf %d to surviving leaf %d", m, n+1, bm, owner[bm], grown[bm])
					}
					moved++
				}
			}
			if bound := (m+n)/(n+1) + 1; moved > bound {
				t.Errorf("m=%d: growing %d leaves to %d moved %d bitmaps, bound %d", m, n, n+1, moved, bound)
			}
		}
	}
}

// serveLeaf starts a checkpoint-less leaf serving fleetSQL on backend.
func serveLeaf(t *testing.T, schema *stream.Schema, backend query.Backend) string {
	t.Helper()
	eng := query.NewEngine(schema)
	for _, sql := range fleetSQL {
		if _, err := eng.RegisterSQL(sql, backend); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := server.Listen(server.Config{Addr: "127.0.0.1:0", Schema: schema, Engine: eng, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Kill)
	return srv.Addr()
}

// TestCoordinatorRefusesMisconfiguredFleet: a fleet the route hash or the
// merge cannot serve is refused by New, naming the leaf, instead of at the
// first Query.
func TestCoordinatorRefusesMisconfiguredFleet(t *testing.T) {
	schema := fleetSchema(t)
	sketch := func(opts core.Options) query.Backend {
		return func(cond imps.Conditions) (imps.Estimator, error) { return core.NewSketch(cond, opts) }
	}
	good := sketch(core.Options{Seed: fleetSeed})
	for _, tc := range []struct {
		name     string
		backends []query.Backend
		want     string
	}{
		{"mismatched seed", []query.Backend{good, sketch(core.Options{Seed: fleetSeed + 1})}, "leaf b"},
		{"mismatched bitmaps", []query.Backend{good, sketch(core.Options{Seed: fleetSeed, Bitmaps: 32})}, "leaf b"},
		{"exact leaf", []query.Backend{good, func(cond imps.Conditions) (imps.Estimator, error) { return exact.NewStriped(cond, 4) }}, "leaf b"},
		{"more leaves than bitmaps", []query.Backend{
			sketch(core.Options{Seed: fleetSeed, Bitmaps: 2}),
			sketch(core.Options{Seed: fleetSeed, Bitmaps: 2}),
			sketch(core.Options{Seed: fleetSeed, Bitmaps: 2}),
		}, "3 leaves cannot share 2 bitmaps"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var specs []LeafSpec
			for i, backend := range tc.backends {
				specs = append(specs, LeafSpec{Name: string(rune('a' + i)), Addr: serveLeaf(t, schema, backend)})
			}
			co, err := New(Config{Schema: schema, Statements: fleetSQL, Leaves: specs})
			if err == nil {
				co.Close()
				t.Fatal("misconfigured fleet accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// sketchState renders every bitmap of sk — zone structure and tracked
// itemsets — without the peak, which a merge only bounds.
func sketchState(sk *core.Sketch) string {
	var b strings.Builder
	sk.Dump(&b, 0)
	for bm := 0; bm < sk.Options().Bitmaps; bm++ {
		sk.DumpCells(&b, bm)
	}
	return regexp.MustCompile(`\(peak \d+\)`).ReplaceAllString(b.String(), "")
}

// TestFleetEqualsOneSketch: three real leaves fed Dataset One by one
// producer hold, between them, exactly one sketch — the coordinator's count
// equals an in-process sketch fed the same tuples, the leaves' summed
// footprint equals that sketch's, and the merged snapshot's bitmaps are
// that sketch's bitmaps. The statements are Dataset One's own conditions
// at the benchmark's support of 50 — enough for fringe cells to die before
// any of their itemsets is supported and reopen support-only, the state a
// merge into an empty bitmap used to drop — and the harness's first.
func TestFleetEqualsOneSketch(t *testing.T) {
	schema := fleetSchema(t)
	d := gen.MustDatasetOne(gen.DatasetOneConfig{CardA: 3000, Count: 1000, C: 2, Support: 50, Seed: 3})
	c := d.Conditions
	fl := newFleet(t, schema)
	fl.sql = []string{
		fmt.Sprintf("SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B WITH SUPPORT >= %d, MULTIPLICITY <= %d, CONFIDENCE >= %g TOP %d",
			c.MinSupport, c.MaxMultiplicity, c.MinTopConfidence, c.TopC),
		fleetSQL[0],
	}
	t.Cleanup(fl.closeAll)
	co := startCoordinator(t, fl, 3, "leaf")
	one, err := fl.engine()
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]stream.Tuple, len(d.Pairs))
	for i, p := range d.Pairs {
		tuples[i] = stream.Tuple{fmt.Sprintf("a%d", p.A), fmt.Sprintf("b%d", p.B)}
	}
	const chunk = 1000
	for off := 0; off < len(tuples); off += chunk {
		batch := tuples[off:min(off+chunk, len(tuples))]
		if err := co.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		one.ProcessBatch(batch)
	}
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}
	for stmt := range fl.sql {
		ref := one.Statements()[stmt].Estimator().(*core.Sketch)
		q, err := co.Query(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if want := one.Statements()[stmt].Count(); math.Float64bits(q.Count) != math.Float64bits(want) || q.Tuples != ref.Tuples() {
			t.Errorf("stmt %d: fleet count %v over %d tuples, one sketch %v over %d", stmt, q.Count, q.Tuples, want, ref.Tuples())
		}
		entries := 0
		for _, name := range leafNames(3) {
			entries += fl.servers[name].Engine().Statements()[stmt].Health().MemEntries
		}
		if entries != ref.MemEntries() {
			t.Errorf("stmt %d: leaves hold %d entries between them, one sketch %d", stmt, entries, ref.MemEntries())
		}
		snap, err := co.Snapshot(stmt)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := core.UnmarshalSketch(snap.Sketch)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sketchState(merged), sketchState(ref); got != want {
			t.Errorf("stmt %d: merged fleet bitmaps differ from one sketch's\n got:\n%.2000s\nwant:\n%.2000s", stmt, got, want)
		}
	}
}
