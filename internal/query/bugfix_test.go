package query

import (
	"strings"
	"testing"

	"implicate/internal/core"
	"implicate/internal/exact"
	"implicate/internal/imps"
	"implicate/internal/stream"
)

// sketchFactory builds backends the way user code does: one factory
// function, parameterized by options, returning a fresh closure per call.
// Every closure it returns shares the factory literal's code pointer — the
// aliasing trap the share key must see through.
func sketchFactory(opts core.Options) Backend {
	return func(cond imps.Conditions) (imps.Estimator, error) {
		return core.NewSketch(cond, opts)
	}
}

// TestNoSharingAcrossFactoryConfigs: two backends built by the same factory
// with different configurations must NOT share an estimator, even though
// their closures share a code pointer. The backends are minted through a
// single call site (the loop) so the compiler cannot quietly give each its
// own inlined closure body — the collision the share key must survive is
// two distinct backend values behind ONE code pointer.
func TestNoSharingAcrossFactoryConfigs(t *testing.T) {
	e := NewEngine(mustSchema(t))
	sql := `SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination`
	var stmts []*Statement
	for _, opts := range []core.Options{{Bitmaps: 16}, {Bitmaps: 256}} {
		st, err := e.RegisterSQL(sql, sketchFactory(opts))
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, st)
	}
	small, large := stmts[0], stmts[1]
	if small.Estimator() == large.Estimator() {
		t.Fatal("backends with different configurations shared an estimator")
	}
	if got := small.Estimator().(*core.Sketch).Options().Bitmaps; got != 16 {
		t.Fatalf("first statement's sketch has %d bitmaps, want 16", got)
	}
	if got := large.Estimator().(*core.Sketch).Options().Bitmaps; got != 256 {
		t.Fatalf("second statement's sketch has %d bitmaps, want its own 256", got)
	}
}

// TestFactoryBackendStillShares: read-mode variants registered with one
// factory-built backend value still share an estimator — the configuration
// fingerprint in the share key separates differently configured backends
// without breaking mode sharing. (Fingerprints exclude auto-derived seeds
// precisely so that a factory minting a fresh seed per construction does
// not defeat this.)
func TestFactoryBackendStillShares(t *testing.T) {
	e := NewEngine(mustSchema(t))
	backend := sketchFactory(core.Options{Bitmaps: 64})
	base := `FROM t WHERE Source %sIMPLIES Destination`
	a, err := e.RegisterSQL(`SELECT COUNT(DISTINCT Source) `+sprintfBase(base, ""), backend)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.RegisterSQL(`SELECT COUNT(DISTINCT Source) `+sprintfBase(base, "NOT "), backend)
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimator() != b.Estimator() {
		t.Fatal("mode variants of one factory-built backend did not share")
	}
}

// TestSharedPathValidatesBackend: an estimator another statement could be
// aliased to must not short-circuit validation — a backend whose
// construction fails is rejected even when its factory twin already
// registered the same query.
func TestSharedPathValidatesBackend(t *testing.T) {
	e := NewEngine(mustSchema(t))
	sql := `SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination`
	if _, err := e.RegisterSQL(sql, sketchFactory(core.Options{Bitmaps: 64})); err != nil {
		t.Fatal(err)
	}
	// Same factory code pointer, broken configuration (33 is not a power of
	// two): registration must fail, not silently alias the healthy sketch.
	if _, err := e.RegisterSQL(sql, sketchFactory(core.Options{Bitmaps: 33})); err == nil {
		t.Fatal("broken backend registered without error by aliasing its factory twin")
	}
}

// noAvgEstimator hides every optional capability of the wrapped estimator,
// in particular MultiplicityAverager.
type noAvgEstimator struct {
	inner *exact.Counter
}

func (n noAvgEstimator) Add(a, b string)           { n.inner.Add(a, b) }
func (n noAvgEstimator) ImplicationCount() float64 { return n.inner.ImplicationCount() }
func (n noAvgEstimator) NonImplicationCount() float64 {
	return n.inner.NonImplicationCount()
}
func (n noAvgEstimator) SupportedDistinct() float64 { return n.inner.SupportedDistinct() }
func (n noAvgEstimator) Tuples() int64              { return n.inner.Tuples() }
func (n noAvgEstimator) MemEntries() int            { return n.inner.MemEntries() }

func noAvgBackend(cond imps.Conditions) (imps.Estimator, error) {
	c, err := exact.NewCounter(cond)
	if err != nil {
		return nil, err
	}
	return noAvgEstimator{inner: c}, nil
}

// TestWindowedAvgRequiresAverager: a windowed AVG(MULTIPLICITY(...)) over a
// backend that cannot average must be rejected at compile time. (The
// sliding-window wrapper itself implements the averaging interface, so a
// check against the wrapper instead of the backend's estimator would pass
// and the statement would silently answer 0 forever.)
func TestWindowedAvgRequiresAverager(t *testing.T) {
	schema := mustSchema(t)
	sql := `SELECT AVG(MULTIPLICITY(Source)) FROM t WHERE Source IMPLIES Destination WINDOW 100 EVERY 10`
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(schema).Register(*q, noAvgBackend); err == nil {
		t.Fatal("windowed AVG compiled against a backend that cannot average")
	} else if !strings.Contains(err.Error(), "AVG(MULTIPLICITY") {
		t.Fatalf("unhelpful rejection: %v", err)
	}
}

// TestWindowedAvgRequiresAveragerViaRegister: the same rejection must hold
// on the engine's Register path when a shareable statement over the same
// predicate already exists.
func TestWindowedAvgRequiresAveragerViaRegister(t *testing.T) {
	e := NewEngine(mustSchema(t))
	base := `FROM t WHERE Source IMPLIES Destination WINDOW 100 EVERY 10`
	if _, err := e.RegisterSQL(`SELECT COUNT(DISTINCT Source) `+base, noAvgBackend); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterSQL(`SELECT AVG(MULTIPLICITY(Source)) `+base, noAvgBackend); err == nil {
		t.Fatal("windowed AVG registered against a backend that cannot average")
	}
}

// TestWindowedAvgAnswersWithAverager: the positive case — a windowed AVG
// over an averaging backend compiles and reports a real (non-zero) value.
func TestWindowedAvgAnswersWithAverager(t *testing.T) {
	e := NewEngine(mustSchema(t))
	st, err := e.RegisterSQL(
		`SELECT AVG(MULTIPLICITY(Source)) FROM t WHERE Source IMPLIES Destination
		 WITH MULTIPLICITY <= 10, CONFIDENCE >= 0.1 TOP 1 WINDOW 100 EVERY 10`, exactBackend)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Consume(stream.NewMemSource(table1())); err != nil {
		t.Fatal(err)
	}
	if st.Count() == 0 {
		t.Fatal("windowed AVG over an averaging backend answered 0")
	}
}

// TestSharedPathValidatesQuery: a valid CountImplications registered
// first, then a mode variant over the same predicate with an invalid
// window geometry (EVERY > WINDOW). The second registration must run the
// full normalization pipeline and be rejected — not alias the compiled
// statement with its own validation skipped.
func TestSharedPathValidatesQuery(t *testing.T) {
	e := NewEngine(mustSchema(t))
	if _, err := e.RegisterSQL(
		`SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination WINDOW 100 EVERY 20`,
		exactBackend); err != nil {
		t.Fatal(err)
	}
	_, err := e.RegisterSQL(
		`SELECT AVG(MULTIPLICITY(Source)) FROM t WHERE Source IMPLIES Destination WINDOW 100 EVERY 200`,
		exactBackend)
	if err == nil || !strings.Contains(err.Error(), "EVERY") {
		t.Fatalf("EVERY > WINDOW mode variant was not rejected on the shared path: %v", err)
	}
}
