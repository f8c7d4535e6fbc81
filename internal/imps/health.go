package imps

// HealthReport is one estimator's runtime self-assessment: how full its
// constrained memory is, how saturated its probabilistic structures are, and
// how much error it believes its current estimate carries. The paper's whole
// premise is operating under severe memory constraints; a health report is
// how an operator sees an estimator approaching those constraints live
// instead of discovering them post-hoc from drifted answers.
//
// Estimators fill the fields that apply to them and leave the rest zero: a
// bitmap sketch reports fill and fringe occupancy, an exact counter reports
// only its footprint. The engine layer stamps the identity fields (Stmt, Kind,
// Query, Shared) when it surfaces a report.
type HealthReport struct {
	// Stmt is the statement's registration index (the Query RPC id);
	// stamped by the engine.
	Stmt int
	// Kind is the snapshot-registry name of the leaf estimator ("nips" for
	// a sketch with one lock stripe, "sharded" for one with several,
	// "exact" for an exact counter at any count), or "" when the estimator
	// is not a registered kind; stamped by the engine.
	Kind string
	// Query is the statement's normalized query text; stamped by the engine.
	Query string
	// Shared marks a statement aliasing another statement's estimator; its
	// report duplicates the owner's estimator state.
	Shared bool

	// Tuples is the number of tuples the estimator has observed.
	Tuples int64
	// MemEntries is the live counter-entry count — the footprint measure the
	// paper compares algorithms by (§4.6, Table 5).
	MemEntries int
	// MemBytes approximates the heap bytes those entries occupy. It is an
	// estimate from entry counts and per-entry struct sizes, not a heap
	// measurement.
	MemBytes int64

	// BitmapFill is the saturation of the estimator's bounded structure in
	// [0,1]: for bitmap sketches, the fraction of cells whose value bit is
	// set. 0 for estimators with no bounded structure.
	BitmapFill float64
	// LeftmostZero is the mean leftmost-zero position over the sketch's
	// bitmaps (the plain-F0 FM reader position R) — the quantity the
	// probabilistic counts are read from, and the direct measure of how far
	// the bitmaps have saturated. 0 for non-sketch estimators.
	LeftmostZero float64

	// FringeTracked is the number of A-itemsets currently tracked in fringe
	// or support-only cells.
	FringeTracked int
	// FringePairs is the number of live (a,b) pair counters.
	FringePairs int
	// FringeTombstones is the number of excluded-itemset markers held in
	// live cells.
	FringeTombstones int
	// FringeEvictions counts cells permanently retired from tracking:
	// overflowed, or pushed out of the floating fringe with recorded
	// evidence. Sustained growth under a stable workload means the fringe
	// budget (F, slack) is too tight for the stream.
	FringeEvictions int64
	// FringeWidth is the widest live fringe (hi−lo+1) across bitmaps.
	FringeWidth int

	// RelErr is the estimator's own standard-error-based relative error
	// estimate for its implication count (stderr/estimate, the
	// metrics.IntervalRelErr reading of its confidence interval), 0 when the
	// estimator is exact or cannot self-assess.
	RelErr float64
}

// HealthReporter is implemented by estimators that can describe their own
// runtime health. Estimators without it still get a minimal report (tuples
// and entry count) from the engine layer.
type HealthReporter interface {
	Health() HealthReport
}
