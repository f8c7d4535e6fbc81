// Benchmarks regenerating the paper's tables and figures (one benchmark per
// table/figure; see DESIGN.md's per-experiment index) plus per-tuple
// processing-cost benchmarks for every algorithm. The figure benchmarks run
// reduced configurations sized for a laptop; cmd/impbench -paper runs the
// full-scale versions.
package implicate_test

import (
	"fmt"
	"io"
	"testing"

	"implicate"
	"implicate/internal/exact"
	"implicate/internal/experiments"
	"implicate/internal/gen"
	"implicate/internal/imps"
	"implicate/internal/stream"
)

func benchConditions() implicate.Conditions {
	return implicate.Conditions{MaxMultiplicity: 2, MinSupport: 5, TopC: 1, MinTopConfidence: 0.6}
}

// benchDatasetOne runs the Figures 4–6 sweep at a reduced configuration and
// reports the mean relative errors as benchmark metrics.
func benchDatasetOne(b *testing.B, figure string, c int) {
	cfg := experiments.DatasetOneConfig{
		C:     c,
		Cards: []int{1000},
		Fracs: []float64{0.1, 0.5, 0.9},
		Runs:  3,
		Seed:  1,
	}
	b.ReportAllocs()
	var rows []experiments.DatasetOneRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunDatasetOne(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var bounded, unbounded float64
	for _, r := range rows {
		bounded += r.BoundedErr
		unbounded += r.UnboundedErr
	}
	b.ReportMetric(bounded/float64(len(rows)), "bounded-relerr")
	b.ReportMetric(unbounded/float64(len(rows)), "unbounded-relerr")
	if b.N == 1 {
		experiments.PrintDatasetOne(io.Discard, figure, c, rows)
	}
}

func BenchmarkFig4DatasetOne(b *testing.B) { benchDatasetOne(b, "Figure 4", 1) }
func BenchmarkFig5DatasetOne(b *testing.B) { benchDatasetOne(b, "Figure 5", 2) }
func BenchmarkFig6DatasetOne(b *testing.B) { benchDatasetOne(b, "Figure 6", 4) }

// benchFig7 runs one Figure 7 panel at a reduced stream length and reports
// the final-checkpoint errors of the three algorithms as metrics.
func benchFig7(b *testing.B, wl experiments.Workload, tau int64) {
	cfg := experiments.OLAPConfig{
		Workload:    wl,
		Tau:         tau,
		Psis:        []float64{0.6},
		Checkpoints: []int64{134576, 403726},
		Seed:        1,
	}
	var rows []experiments.OLAPRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunOLAP(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.NIPSErr, "nips-relerr")
	b.ReportMetric(last.DSErr, "ds-relerr")
	b.ReportMetric(last.ILCErr, "ilc-relerr")
	b.ReportMetric(float64(last.NIPSMem), "nips-mem")
}

func BenchmarkFig7WorkloadA_Tau5(b *testing.B)  { benchFig7(b, experiments.WorkloadA, 5) }
func BenchmarkFig7WorkloadA_Tau50(b *testing.B) { benchFig7(b, experiments.WorkloadA, 50) }
func BenchmarkFig7WorkloadB_Tau5(b *testing.B)  { benchFig7(b, experiments.WorkloadB, 5) }
func BenchmarkFig7WorkloadB_Tau50(b *testing.B) { benchFig7(b, experiments.WorkloadB, 50) }

// BenchmarkTable4Counts regenerates the Table 4 ground-truth counts at a
// reduced checkpoint list.
func BenchmarkTable4Counts(b *testing.B) {
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunTable4([]int64{134576, 403726}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].WorkloadA, "workloadA-count")
	b.ReportMetric(rows[len(rows)-1].WorkloadB, "workloadB-count")
}

// BenchmarkTable5Budget verifies and reports the Table 5 memory budget.
func BenchmarkTable5Budget(b *testing.B) {
	var t5 experiments.Table5
	for i := 0; i < b.N; i++ {
		t5 = experiments.DefaultTable5()
	}
	b.ReportMetric(float64(t5.NIPSItemsets), "nips-itemset-budget")
	b.ReportMetric(float64(t5.DSSampleSize), "ds-sample-size")
}

// Ablation benchmarks for the design choices DESIGN.md calls out.

func BenchmarkAblationFringe(b *testing.B) {
	cfg := experiments.AblationConfig{CardA: 1000, Frac: 0.5, C: 1, Runs: 2, Seed: 1}
	var rows []experiments.FringeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunFringeAblation(cfg, []int{2, 4, 8, 0})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		name := fmt.Sprintf("relerr-F%d", r.FringeSize)
		if r.FringeSize == 0 {
			name = "relerr-unbounded"
		}
		b.ReportMetric(r.Err, name)
	}
}

func BenchmarkAblationBitmaps(b *testing.B) {
	cfg := experiments.AblationConfig{CardA: 1000, Frac: 0.5, C: 1, Runs: 2, Seed: 2}
	var rows []experiments.BitmapRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunBitmapAblation(cfg, []int{16, 64, 256})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Err, fmt.Sprintf("relerr-m%d", r.Bitmaps))
	}
}

func BenchmarkAblationSlack(b *testing.B) {
	cfg := experiments.AblationConfig{CardA: 1000, Frac: 0.5, C: 1, Runs: 2, Seed: 3}
	var rows []experiments.SlackRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunSlackAblation(cfg, []int{1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Err, fmt.Sprintf("relerr-slack%d", r.Slack))
	}
}

func BenchmarkAblationLemma2(b *testing.B) {
	cfg := experiments.AblationConfig{CardA: 2000, Frac: 0.5, C: 1, Runs: 2, Seed: 4}
	var rows []experiments.Lemma2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunLemma2(cfg, []float64{0.25, 0.03125}, []int{2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.NonImpErr, fmt.Sprintf("nonimp-relerr-q%.3f-F%d", r.Q, r.FringeF))
	}
}

// Per-tuple processing cost (§4.6 claims O(K·log K) time per item for NIPS
// and compares the competitors' costs).

func benchAddPairs(b *testing.B, est imps.Estimator) {
	d := gen.MustDatasetOne(gen.DatasetOneConfig{CardA: 2000, Count: 1000, C: 2, Seed: 9})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := d.Pairs[i%len(d.Pairs)]
		est.Add(gen.Key(p.A), gen.Key(p.B))
	}
}

func BenchmarkAddNIPS(b *testing.B) {
	sk, _ := implicate.NewSketch(benchConditions(), implicate.Options{Seed: 1})
	benchAddPairs(b, sk)
}

func BenchmarkAddNIPSUnbounded(b *testing.B) {
	sk, _ := implicate.NewSketch(benchConditions(), implicate.Options{Seed: 1, Unbounded: true})
	benchAddPairs(b, sk)
}

func BenchmarkAddExact(b *testing.B) {
	benchAddPairs(b, exact.MustCounter(benchConditions()))
}

func BenchmarkAddILC(b *testing.B) {
	ilc, _ := implicate.NewILC(benchConditions(), 0.01, 0.01)
	benchAddPairs(b, ilc)
}

func BenchmarkAddDistinctSampling(b *testing.B) {
	ds, _ := implicate.NewDistinctSampling(benchConditions(), 1920, 39, 1)
	benchAddPairs(b, ds)
}

// BenchmarkAddNIPSHashedFastPath measures the allocation-free integer-keyed
// ingest path used by the synthetic harness.
func BenchmarkAddNIPSHashedFastPath(b *testing.B) {
	sk, _ := implicate.NewSketch(benchConditions(), implicate.Options{Seed: 1})
	d := gen.MustDatasetOne(gen.DatasetOneConfig{CardA: 2000, Count: 1000, C: 2, Seed: 9})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := d.Pairs[i%len(d.Pairs)]
		sk.AddIDs(p.A, p.B)
	}
}

// Parallel ingestion: the single global lock versus the sharded sketch at
// several shard counts (and the serial sketch as the no-synchronization
// floor). Speedups need real cores; on a single-core runner the sharded
// variants measure pure synchronization overhead instead.

func benchPairs() []implicate.HashedPair {
	d := gen.MustDatasetOne(gen.DatasetOneConfig{CardA: 20000, Count: 10000, C: 2, Seed: 9})
	pairs := make([]implicate.HashedPair, len(d.Pairs))
	for i, p := range d.Pairs {
		pairs[i] = implicate.HashedPair{A: gen.Key(p.A), B: gen.Key(p.B)}
	}
	return pairs
}

func reportTuplesPerSec(b *testing.B, tuples int64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(tuples)/s, "tuples/s")
	}
}

func BenchmarkParallelIngest(b *testing.B) {
	pairs := benchPairs()
	cond := benchConditions()

	b.Run("serial", func(b *testing.B) {
		sk, _ := implicate.NewSketch(cond, implicate.Options{Seed: 1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			sk.Add(p.A, p.B)
		}
		reportTuplesPerSec(b, int64(b.N))
	})
	b.Run("mutex", func(b *testing.B) {
		sk, _ := implicate.NewSketch(cond, implicate.Options{Seed: 1})
		sync := implicate.Synchronized(sk)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				p := pairs[i%len(pairs)]
				sync.Add(p.A, p.B)
				i++
			}
		})
		reportTuplesPerSec(b, int64(b.N))
	})
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sharded-%d", n), func(b *testing.B) {
			ss, err := implicate.NewShardedSketch(cond, implicate.Options{Seed: 1}, n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					p := pairs[i%len(pairs)]
					ss.Add(p.A, p.B)
					i++
				}
			})
			reportTuplesPerSec(b, int64(b.N))
		})
	}
}

// BenchmarkAddHashedPairs measures the batched ingest contract the way a
// planner drives it — hash each key once, then AddHashedPairs; one iteration
// is one 256-tuple batch.
func BenchmarkAddHashedPairs(b *testing.B) {
	pairs := benchPairs()
	cond := benchConditions()
	const batch = 256
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("sharded-%d", n), func(b *testing.B) {
			ss, err := implicate.NewShardedSketch(cond, implicate.Options{Seed: 1}, n)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i * batch) % (len(pairs) - batch)
				part := pairs[off : off+batch]
				for j := range part {
					part[j].AH, part[j].BH = ss.HashPairKeys(part[j].A, part[j].B)
				}
				ss.AddHashedPairs(part)
			}
			reportTuplesPerSec(b, int64(b.N)*batch)
		})
	}
}

// BenchmarkEstimateRead measures the cost of reading the implication count
// off a loaded sketch (Algorithm CI runs per query, not per tuple).
func BenchmarkEstimateRead(b *testing.B) {
	sk, _ := implicate.NewSketch(benchConditions(), implicate.Options{Seed: 1})
	d := gen.MustDatasetOne(gen.DatasetOneConfig{CardA: 5000, Count: 2500, C: 2, Seed: 9})
	d.Feed(sk)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += sk.ImplicationCount()
	}
	_ = sink
}

// BenchmarkMerge measures folding one loaded sketch into another. The two
// inputs are restored from serialized checkpoints per iteration (Merge
// consumes its argument), which keeps the untimed setup in the same order
// of magnitude as the merge itself.
func BenchmarkMerge(b *testing.B) {
	cond := benchConditions()
	d := gen.MustDatasetOne(gen.DatasetOneConfig{CardA: 5000, Count: 2500, C: 2, Seed: 3})
	left0, _ := implicate.NewSketch(cond, implicate.Options{Seed: 9})
	right0, _ := implicate.NewSketch(cond, implicate.Options{Seed: 9})
	for n, p := range d.Pairs {
		if n%2 == 0 {
			left0.AddIDs(p.A, p.B)
		} else {
			right0.AddIDs(p.A, p.B)
		}
	}
	leftBlob, err := left0.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	rightBlob, err := right0.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		left, err := implicate.UnmarshalSketch(leftBlob)
		if err != nil {
			b.Fatal(err)
		}
		right, err := implicate.UnmarshalSketch(rightBlob)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := left.Merge(right); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshal measures checkpoint serialization of a loaded sketch.
func BenchmarkMarshal(b *testing.B) {
	sk, _ := implicate.NewSketch(benchConditions(), implicate.Options{Seed: 2})
	d := gen.MustDatasetOne(gen.DatasetOneConfig{CardA: 5000, Count: 2500, C: 2, Seed: 3})
	d.Feed(sk)
	b.ReportAllocs()
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		data, err := sk.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		size = len(data)
	}
	b.ReportMetric(float64(size), "bytes")
}

// BenchmarkUnmarshal measures checkpoint restore.
func BenchmarkUnmarshal(b *testing.B) {
	sk, _ := implicate.NewSketch(benchConditions(), implicate.Options{Seed: 2})
	d := gen.MustDatasetOne(gen.DatasetOneConfig{CardA: 5000, Count: 2500, C: 2, Seed: 3})
	d.Feed(sk)
	data, err := sk.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := implicate.UnmarshalSketch(data); err != nil {
			b.Fatal(err)
		}
	}
}

// Codec throughput: text vs binary stream files.
func benchCodecWrite(b *testing.B, mk func(w io.Writer, s *stream.Schema) interface {
	Write(stream.Tuple) error
	Flush() error
}) {
	g := gen.NewNetTraffic(gen.NetTrafficConfig{Seed: 1})
	schema := gen.NetTrafficSchema()
	tuples := make([]stream.Tuple, 1000)
	for i := range tuples {
		t, _ := g.Next()
		tuples[i] = append(stream.Tuple(nil), t...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := mk(io.Discard, schema)
		for _, t := range tuples {
			if err := w.Write(t); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecTextWrite(b *testing.B) {
	benchCodecWrite(b, func(w io.Writer, s *stream.Schema) interface {
		Write(stream.Tuple) error
		Flush() error
	} {
		return stream.NewWriter(w, s)
	})
}

func BenchmarkCodecBinaryWrite(b *testing.B) {
	benchCodecWrite(b, func(w io.Writer, s *stream.Schema) interface {
		Write(stream.Tuple) error
		Flush() error
	} {
		return stream.NewBinaryWriter(w, s)
	})
}

// BenchmarkEngineProcess measures the full query-engine path per tuple with
// four statements sharing one estimator.
func BenchmarkEngineProcess(b *testing.B) {
	eng := implicate.NewEngine(gen.NetTrafficSchema())
	backend := implicate.SketchBackend(implicate.Options{Seed: 5})
	for _, sql := range []string{
		`SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination WITH SUPPORT >= 5, MULTIPLICITY <= 3, CONFIDENCE >= 0.8 TOP 1`,
		`SELECT COUNT(DISTINCT Source) FROM t WHERE Source NOT IMPLIES Destination WITH SUPPORT >= 5, MULTIPLICITY <= 3, CONFIDENCE >= 0.8 TOP 1`,
		`SELECT AVG(MULTIPLICITY(Source)) FROM t WHERE Source IMPLIES Destination WITH SUPPORT >= 5, MULTIPLICITY <= 3, CONFIDENCE >= 0.8 TOP 1`,
	} {
		if _, err := eng.RegisterSQL(sql, backend); err != nil {
			b.Fatal(err)
		}
	}
	g := gen.NewNetTraffic(gen.NetTrafficConfig{Seed: 7})
	tuples := make([]stream.Tuple, 1000)
	for i := range tuples {
		t, _ := g.Next()
		tuples[i] = append(stream.Tuple(nil), t...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Process(tuples[i%len(tuples)])
	}
}
