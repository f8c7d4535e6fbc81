// Package query models the implication queries of §3 and Table 2 — from
// plain distinct counts through one-to-many, complement, conditional and
// compound implications, with optional sliding windows — and evaluates them
// over tuple streams with a pluggable estimator backend.
//
// Queries can be built programmatically or parsed from the paper's
// SQL-like dialect:
//
//	SELECT COUNT(DISTINCT Destination) FROM traffic
//	WHERE Destination IMPLIES Source
//	WITH SUPPORT >= 1, MULTIPLICITY <= 5, CONFIDENCE >= 0.8 TOP 2
//
// Conditional implications add equality filters (AND Time = 'Morning'),
// complement implications negate the predicate (NOT IMPLIES), compound
// implications group the left-hand side (GROUP BY Service), and sliding
// windows bound the reference point (WINDOW 100000 EVERY 10000).
package query

import (
	"fmt"

	"implicate/internal/imps"
	"implicate/internal/stream"
)

// Mode selects what the query counts.
type Mode int

const (
	// CountImplications counts itemsets satisfying the implication
	// conditions (the general query of §3).
	CountImplications Mode = iota
	// CountNonImplications counts the complement (§4.3): itemsets meeting
	// the support condition but violating multiplicity or top-confidence.
	CountNonImplications
	// CountSupported counts distinct itemsets meeting the support condition.
	CountSupported
	// CountDistinct is the plain distinct-count statistic.
	CountDistinct
	// AvgMultiplicity averages |φ(a→B)| over the implicating itemsets —
	// the aggregate of Table 2's "Complex Implication" row.
	AvgMultiplicity
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case CountImplications:
		return "implications"
	case CountNonImplications:
		return "non-implications"
	case CountSupported:
		return "supported"
	case CountDistinct:
		return "distinct"
	case AvgMultiplicity:
		return "avg-multiplicity"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Reader is the read side of an estimator: the counts a mode picks from.
// Every imps.Estimator is one; so is a fleet's core.Readout.
type Reader interface {
	ImplicationCount() float64
	NonImplicationCount() float64
	SupportedDistinct() float64
}

// Read answers mode m off est: what a statement of that mode counts. For
// AvgMultiplicity est must be an imps.MultiplicityAverager, which
// Engine.Register checks of every statement's estimator.
func (m Mode) Read(est Reader) float64 {
	switch m {
	case CountNonImplications:
		return est.NonImplicationCount()
	case CountSupported:
		return est.SupportedDistinct()
	case CountDistinct:
		// With the defaulted exact one-to-one conditions and a constant B
		// key, every itemset trivially implies; the supported count at
		// τ=1 is the distinct count.
		return est.SupportedDistinct()
	case AvgMultiplicity:
		return est.(imps.MultiplicityAverager).AvgMultiplicity()
	default:
		return est.ImplicationCount()
	}
}

// Filter is one conditional-implication predicate: attribute = value (or
// != when Negate is set). Only tuples passing every filter feed the
// estimator.
type Filter struct {
	Attr   string
	Value  string
	Negate bool
}

// Query is one implication query.
type Query struct {
	// A is the left-hand attribute set (the COUNT(DISTINCT ...) target).
	A []string
	// B is the implied attribute set. Empty only for Mode CountDistinct.
	B []string
	// From names the stream (informational; the engine binds to a schema).
	From string
	// Mode selects the counted quantity.
	Mode Mode
	// Filters are conjunctive equality predicates (conditional
	// implications).
	Filters []Filter
	// GroupBy lists compound-implication grouping attributes; they extend
	// the counted itemset, so the query counts distinct (A ∪ GroupBy)
	// combinations whose per-group implication holds.
	GroupBy []string
	// Cond are the implication conditions. Zero values are defaulted by
	// Normalize: plain "A IMPLIES B" means an exact one-to-one implication
	// (K=1, c=1, ψ=1, τ=1).
	Cond imps.Conditions
	// Window, when positive, asks for a sliding window of that many tuples;
	// Every is the origin granularity (defaults to Window/10).
	Window int64
	Every  int64
}

// Normalize fills defaulted condition fields and validates the query
// against a schema.
func (q *Query) Normalize(schema *stream.Schema) error {
	if len(q.A) == 0 {
		return fmt.Errorf("query: empty A attribute set")
	}
	if len(q.B) == 0 && q.Mode != CountDistinct {
		return fmt.Errorf("query: empty B attribute set for %v query", q.Mode)
	}
	if q.Cond.MaxMultiplicity == 0 {
		q.Cond.MaxMultiplicity = 1
	}
	if q.Cond.TopC == 0 {
		q.Cond.TopC = 1
	}
	if q.Cond.MinSupport == 0 {
		q.Cond.MinSupport = 1
	}
	if q.Cond.MinTopConfidence == 0 {
		q.Cond.MinTopConfidence = 1.0
	}
	if q.Cond.MaxMultiplicity < q.Cond.TopC {
		q.Cond.MaxMultiplicity = q.Cond.TopC
	}
	if err := q.Cond.Validate(); err != nil {
		return err
	}
	if q.Window < 0 || q.Every < 0 {
		return fmt.Errorf("query: negative window")
	}
	if q.Window > 0 && q.Every == 0 {
		q.Every = q.Window / 10
		if q.Every == 0 {
			q.Every = 1
		}
	}
	if q.Window > 0 && q.Every > q.Window {
		return fmt.Errorf("query: EVERY %d exceeds WINDOW %d", q.Every, q.Window)
	}
	seen := map[string]bool{}
	check := func(kind string, attrs []string) error {
		for _, a := range attrs {
			if _, ok := schema.Index(a); !ok {
				return fmt.Errorf("query: unknown %s attribute %q", kind, a)
			}
			if seen[a] {
				return fmt.Errorf("query: attribute %q used twice across A/B/GROUP BY", a)
			}
			seen[a] = true
		}
		return nil
	}
	if err := check("A", q.A); err != nil {
		return err
	}
	if err := check("B", q.B); err != nil {
		return err
	}
	if err := check("GROUP BY", q.GroupBy); err != nil {
		return err
	}
	for _, f := range q.Filters {
		if _, ok := schema.Index(f.Attr); !ok {
			return fmt.Errorf("query: unknown filter attribute %q", f.Attr)
		}
	}
	return nil
}
