package query

import (
	"bytes"
	"strings"
	"testing"

	"implicate/internal/core"
	"implicate/internal/exact"
	"implicate/internal/imps"
	"implicate/internal/stream"
)

func mustSchema(t *testing.T) *stream.Schema {
	t.Helper()
	return stream.MustSchema("Source", "Destination", "Service", "Time")
}

// table1 is the example network stream of Table 1.
func table1() []stream.Tuple {
	return []stream.Tuple{
		{"S1", "D2", "WWW", "Morning"},
		{"S2", "D1", "FTP", "Morning"},
		{"S1", "D3", "WWW", "Morning"},
		{"S2", "D1", "P2P", "Noon"},
		{"S1", "D3", "P2P", "Afternoon"},
		{"S1", "D3", "WWW", "Afternoon"},
		{"S1", "D3", "P2P", "Afternoon"},
		{"S3", "D3", "P2P", "Night"},
	}
}

func exactBackend(cond imps.Conditions) (imps.Estimator, error) {
	return exact.NewCounter(cond)
}

func run(t *testing.T, sql string) *Statement {
	t.Helper()
	e := NewEngine(mustSchema(t))
	st, err := e.RegisterSQL(sql, exactBackend)
	if err != nil {
		t.Fatalf("register %q: %v", sql, err)
	}
	if _, err := e.Consume(stream.NewMemSource(table1())); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTable2Examples evaluates the classified example queries of Table 2 on
// the Table 1 stream with the exact backend and checks the counts the paper
// quotes (where it quotes them) or hand-computed ground truth.
func TestTable2Examples(t *testing.T) {
	cases := []struct {
		name string
		sql  string
		want float64
	}{
		{
			"distinct count: how many sources have we seen so far",
			`SELECT COUNT(DISTINCT Source) FROM traffic`,
			3,
		},
		{
			"one-to-one: destinations contacted by only one source",
			`SELECT COUNT(DISTINCT Destination) FROM traffic WHERE Destination IMPLIES Source`,
			2, // D2→S1, D1→S2 (§1)
		},
		{
			"one-to-one with noise: destinations contacted by one source 80% of the time",
			`SELECT COUNT(DISTINCT Destination) FROM traffic
			 WHERE Destination IMPLIES Source WITH CONFIDENCE >= 0.8 TOP 1, MULTIPLICITY <= 5`,
			3, // D3 qualifies too (§1)
		},
		{
			"services requested from only one source",
			`SELECT COUNT(DISTINCT Service) FROM traffic WHERE Service IMPLIES Source`,
			2, // WWW→S1, FTP→S2 (§1)
		},
		{
			"services used by at most two sources 80% of the time (§3.1.2)",
			`SELECT COUNT(DISTINCT Service) FROM traffic
			 WHERE Service IMPLIES Source WITH MULTIPLICITY <= 5, CONFIDENCE >= 0.8 TOP 2`,
			2, // WWW, FTP; P2P fails at 75%
		},
		{
			"same at 75% admits P2P (§3.1.2)",
			`SELECT COUNT(DISTINCT Service) FROM traffic
			 WHERE Service IMPLIES Source WITH MULTIPLICITY <= 5, CONFIDENCE >= 0.75 TOP 2`,
			3,
		},
		{
			"conditional: sources contacting only one destination during the morning",
			`SELECT COUNT(DISTINCT Source) FROM traffic
			 WHERE Source IMPLIES Destination AND Time = 'Morning'`,
			1, // morning tuples: S1→{D2,D3} (out), S2→{D1} (in)
		},
		{
			"complement: sources that do not use only the WWW service",
			`SELECT COUNT(DISTINCT Source) FROM traffic WHERE Source NOT IMPLIES Service`,
			2, // S1 uses WWW+P2P, S2 uses FTP+P2P; S3 only P2P
		},
		{
			"compound: sources contacting only one target per service",
			`SELECT COUNT(DISTINCT Source) FROM traffic
			 WHERE Source IMPLIES Destination GROUP BY Service`,
			4, // (S1,WWW)→{D2,D3} fails; (S1,P2P)→D3, (S2,FTP)→D1, (S2,P2P)→D1, (S3,P2P)→D3 hold
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(t, tc.sql).Count(); got != tc.want {
				t.Fatalf("%s\n  count = %v, want %v", tc.sql, got, tc.want)
			}
		})
	}
}

func TestCompileErrors(t *testing.T) {
	schema := stream.MustSchema("a", "b", "c")
	bad := []Query{
		{},
		{A: []string{"a"}},                    // missing B
		{A: []string{"zz"}, B: []string{"b"}}, // unknown A
		{A: []string{"a"}, B: []string{"zz"}}, // unknown B
		{A: []string{"a"}, B: []string{"a"}},  // overlap
		{A: []string{"a"}, B: []string{"b"}, GroupBy: []string{"b"}},
		{A: []string{"a"}, B: []string{"b"}, Filters: []Filter{{Attr: "zz"}}},
		{A: []string{"a"}, B: []string{"b"}, Window: 10, Every: 20},
		{A: []string{"a"}, B: []string{"b"}, Cond: imps.Conditions{MaxMultiplicity: 1, TopC: 1, MinSupport: -2, MinTopConfidence: 1}},
	}
	for i, q := range bad {
		if _, err := NewEngine(schema).Register(q, exactBackend); err == nil {
			t.Errorf("bad query %d accepted: %+v", i, q)
		}
	}
	if _, err := NewEngine(schema).Register(Query{A: []string{"a"}, B: []string{"b"}}, nil); err == nil {
		t.Error("nil backend accepted")
	}
}

func TestNormalizeDefaults(t *testing.T) {
	schema := stream.MustSchema("a", "b")
	q := Query{A: []string{"a"}, B: []string{"b"}}
	if err := q.Normalize(schema); err != nil {
		t.Fatal(err)
	}
	want := imps.Conditions{MaxMultiplicity: 1, MinSupport: 1, TopC: 1, MinTopConfidence: 1.0}
	if q.Cond != want {
		t.Fatalf("defaults = %+v", q.Cond)
	}
	// TopC pulls MaxMultiplicity up.
	q2 := Query{A: []string{"a"}, B: []string{"b"}, Cond: imps.Conditions{TopC: 3}}
	if err := q2.Normalize(schema); err != nil {
		t.Fatal(err)
	}
	if q2.Cond.MaxMultiplicity != 3 {
		t.Fatalf("MaxMultiplicity = %d, want 3", q2.Cond.MaxMultiplicity)
	}
}

func TestWindowedStatement(t *testing.T) {
	schema := stream.MustSchema("s", "d")
	e := NewEngine(schema)
	st, err := e.RegisterSQL(
		`SELECT COUNT(DISTINCT s) FROM t WHERE s IMPLIES d WITH SUPPORT >= 2 WINDOW 100 EVERY 20`,
		exactBackend)
	if err != nil {
		t.Fatal(err)
	}
	// 50 implicating itemsets (100 tuples), then 200 noise tuples pushing
	// them out of the window.
	for i := 0; i < 50; i++ {
		a := stream.Tuple{string(rune('A'+i%26)) + "x" + string(rune('0'+i/26)), "d"}
		e.Process(a)
		e.Process(a)
	}
	inWindow := st.Count()
	if inWindow < 40 {
		t.Fatalf("windowed count = %v, want ≈50", inWindow)
	}
	for i := 0; i < 200; i++ {
		e.Process(stream.Tuple{"noise" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)), "q"})
	}
	if got := st.Count(); got >= inWindow/2 {
		t.Fatalf("stale itemsets remain in window: %v", got)
	}
	if e.Tuples() != 300 {
		t.Fatalf("Tuples = %d", e.Tuples())
	}
}

func TestSketchBackend(t *testing.T) {
	e := NewEngine(mustSchema(t))
	backend := func(cond imps.Conditions) (imps.Estimator, error) {
		return core.NewSketch(cond, core.Options{Seed: 42})
	}
	st, err := e.RegisterSQL(
		`SELECT COUNT(DISTINCT Destination) FROM traffic WHERE Destination IMPLIES Source`,
		backend)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ { // replay the toy stream to give the sketch volume
		for _, tup := range table1() {
			e.Process(tup)
		}
	}
	// Exact answer is 2 out of 3 destinations; the sketch at tiny
	// cardinality tracks everything and should be very close.
	if got := st.Count(); got < 1 || got > 4 {
		t.Fatalf("sketch-backed count = %v, want ≈2", got)
	}
	if len(e.Statements()) != 1 {
		t.Fatalf("Statements = %d", len(e.Statements()))
	}
}

// TestProcessBatchMatchesProcess checks that the batched path lands on
// exactly the per-tuple results, over a stream with filters and a GROUP BY
// in play.
func TestProcessBatchMatchesProcess(t *testing.T) {
	queries := []string{
		`SELECT COUNT(DISTINCT Destination) FROM traffic WHERE Destination IMPLIES Source`,
		`SELECT COUNT(DISTINCT Source) FROM traffic WHERE Source IMPLIES Destination AND Time = 'Morning'`,
		`SELECT COUNT(DISTINCT Source) FROM traffic WHERE Source IMPLIES Destination GROUP BY Service`,
	}
	var tuples []stream.Tuple
	for i := 0; i < 100; i++ {
		tuples = append(tuples, table1()...)
	}

	sketch := func(cond imps.Conditions) (imps.Estimator, error) {
		return core.NewSketch(cond, core.Options{Seed: 42})
	}

	type variant struct {
		name  string
		stmts []*Statement
	}
	var variants []variant
	build := func(name string, backend Backend, feed func(*Engine)) {
		e := NewEngine(mustSchema(t))
		var stmts []*Statement
		for _, q := range queries {
			st, err := e.RegisterSQL(q, backend)
			if err != nil {
				t.Fatal(err)
			}
			stmts = append(stmts, st)
		}
		feed(e)
		if e.Tuples() != int64(len(tuples)) {
			t.Fatalf("%s: engine counted %d tuples, want %d", name, e.Tuples(), len(tuples))
		}
		variants = append(variants, variant{name, stmts})
	}

	build("per-tuple", sketch, func(e *Engine) {
		for _, tup := range tuples {
			e.Process(tup)
		}
	})
	build("batched", sketch, func(e *Engine) {
		for off := 0; off < len(tuples); off += 97 {
			end := off + 97
			if end > len(tuples) {
				end = len(tuples)
			}
			e.ProcessBatch(tuples[off:end])
		}
	})

	ref := variants[0]
	for _, v := range variants[1:] {
		for i, st := range v.stmts {
			if got, want := st.Count(), ref.stmts[i].Count(); got != want {
				t.Errorf("%s: query %d count %v, want %v (per-tuple reference)", v.name, i, got, want)
			}
		}
	}
}

// TestConsumeBatchSource checks Engine.Consume drains binary sources through
// the batch path with identical results to the per-tuple text path.
func TestConsumeBatchSource(t *testing.T) {
	schema := mustSchema(t)
	var bin bytes.Buffer
	bw := stream.NewBinaryWriter(&bin, schema)
	var tuples []stream.Tuple
	for i := 0; i < 700; i++ {
		tuples = append(tuples, table1()...)
	}
	for _, tup := range tuples {
		if err := bw.Write(tup); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()

	sql := `SELECT COUNT(DISTINCT Destination) FROM traffic WHERE Destination IMPLIES Source`

	mem := NewEngine(schema)
	stMem, err := mem.RegisterSQL(sql, exactBackend)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := mem.Consume(stream.NewMemSource(tuples)); err != nil || n != int64(len(tuples)) {
		t.Fatalf("mem consume = (%d, %v)", n, err)
	}

	eng := NewEngine(schema)
	st, err := eng.RegisterSQL(sql, exactBackend)
	if err != nil {
		t.Fatal(err)
	}
	br, err := stream.NewBinaryReader(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n, err := eng.Consume(br)
	if err != nil || n != int64(len(tuples)) {
		t.Fatalf("binary consume = (%d, %v), want %d tuples", n, err, len(tuples))
	}
	if got, want := st.Count(), stMem.Count(); got != want {
		t.Fatalf("batched consume count %v, want %v", got, want)
	}
}

func TestStatementQueryAccessor(t *testing.T) {
	st := run(t, `SELECT COUNT(DISTINCT Source) FROM traffic WHERE Source IMPLIES Destination`)
	q := st.Query()
	if q.Mode != CountImplications || q.A[0] != "Source" {
		t.Fatalf("Query() = %+v", q)
	}
	// The normalized query renders and mentions its parts.
	s := q.String()
	for _, want := range []string{"SELECT COUNT(DISTINCT Source)", "IMPLIES Destination"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		CountImplications:    "implications",
		CountNonImplications: "non-implications",
		CountSupported:       "supported",
		CountDistinct:        "distinct",
		AvgMultiplicity:      "avg-multiplicity",
		Mode(99):             "Mode(99)",
	}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestRenderDefaultFromName(t *testing.T) {
	q := Query{A: []string{"a"}, B: []string{"b"}}
	if err := q.Normalize(stream.MustSchema("a", "b")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "FROM stream") {
		t.Fatalf("missing default FROM: %q", q.String())
	}
}
