package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunDatasetOneSmall(t *testing.T) {
	cfg := DatasetOneConfig{
		C:     1,
		Cards: []int{300},
		Fracs: []float64{0.2, 0.8},
		Runs:  3,
		Seed:  1,
	}
	rows, err := RunDatasetOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BoundedErr > 0.35 {
			t.Errorf("count %d: bounded error %.3f too large", r.Count, r.BoundedErr)
		}
		if r.UnboundedErr > 0.05 {
			t.Errorf("count %d: unbounded error %.3f should be near-exact", r.Count, r.UnboundedErr)
		}
		if r.Tuples <= 0 {
			t.Errorf("count %d: missing tuple volume", r.Count)
		}
	}
	var buf bytes.Buffer
	PrintDatasetOne(&buf, "Figure 4", 1, rows)
	out := buf.String()
	if !strings.Contains(out, "|A| = 300") || !strings.Contains(out, "BoundedFringe") {
		t.Fatalf("print output malformed:\n%s", out)
	}
}

func TestRunOLAPSmall(t *testing.T) {
	cfg := OLAPConfig{
		Workload:    WorkloadB,
		Tau:         5,
		Psis:        []float64{0.6},
		Checkpoints: []int64{30000, 60000},
		Seed:        3,
	}
	rows, err := RunOLAP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Exact <= 0 {
			t.Errorf("checkpoint %d: zero ground truth", r.Tuples)
		}
		if r.NIPSMem <= 0 || r.DSMem <= 0 || r.ILCMem <= 0 {
			t.Errorf("checkpoint %d: missing memory accounting", r.Tuples)
		}
	}
	var buf bytes.Buffer
	PrintOLAP(&buf, cfg, rows)
	if !strings.Contains(buf.String(), "Workload B") {
		t.Fatalf("print output malformed:\n%s", buf.String())
	}
}

func TestRunTable4Small(t *testing.T) {
	rows, err := RunTable4([]int64{20000, 50000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].WorkloadA <= rows[0].WorkloadA {
		t.Errorf("workload A counts not growing: %+v", rows)
	}
	var buf bytes.Buffer
	PrintTable4(&buf, rows)
	if !strings.Contains(buf.String(), "A,B→E,G") {
		t.Fatalf("print output malformed:\n%s", buf.String())
	}
}

func TestTables3And5Print(t *testing.T) {
	var buf bytes.Buffer
	PrintTable3(&buf)
	if !strings.Contains(buf.String(), "3363") {
		t.Fatalf("Table 3 output missing cardinality E:\n%s", buf.String())
	}
	buf.Reset()
	DefaultTable5().Print(&buf)
	out := buf.String()
	for _, want := range []string{"1920", "0.01", "64"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 5 output missing %q:\n%s", want, out)
		}
	}
	if got := DefaultTable5().NIPSItemsets; got != 1920 {
		t.Fatalf("NIPS itemset budget = %d, want 1920 (paper §6.2)", got)
	}
}

func TestFringeAblation(t *testing.T) {
	cfg := AblationConfig{CardA: 600, Frac: 0.5, C: 1, Runs: 2, Seed: 2}
	rows, err := RunFringeAblation(cfg, []int{2, 4, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Memory must grow with the fringe and the unbounded variant must use
	// the most.
	if !(rows[0].PeakMem <= rows[1].PeakMem && rows[1].PeakMem <= rows[2].PeakMem) {
		t.Errorf("memory not monotone in fringe size: %+v", rows)
	}
	var buf bytes.Buffer
	PrintFringeAblation(&buf, rows)
	if !strings.Contains(buf.String(), "unbounded") {
		t.Fatal("print output malformed")
	}
}

func TestBitmapAblation(t *testing.T) {
	cfg := AblationConfig{CardA: 800, Frac: 0.5, C: 1, Runs: 3, Seed: 4}
	rows, err := RunBitmapAblation(cfg, []int{8, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Err > rows[0].Err+0.05 {
		t.Errorf("more bitmaps should not be clearly worse: %+v", rows)
	}
	var buf bytes.Buffer
	PrintBitmapAblation(&buf, rows)
	if !strings.Contains(buf.String(), "FM theory") {
		t.Fatal("print output malformed")
	}
}

func TestSlackAblation(t *testing.T) {
	cfg := AblationConfig{CardA: 600, Frac: 0.3, C: 1, Runs: 2, Seed: 5}
	rows, err := RunSlackAblation(cfg, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Overflows < rows[1].Overflows {
		t.Errorf("smaller slack should overflow at least as often: %+v", rows)
	}
	var buf bytes.Buffer
	PrintSlackAblation(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty print output")
	}
}

func TestLemma2Ablation(t *testing.T) {
	cfg := AblationConfig{CardA: 1500, Frac: 0.5, C: 1, Runs: 2, Seed: 6}
	rows, err := RunLemma2(cfg, []float64{0.5, 0.0625}, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[[2]float64]float64{}
	for _, r := range rows {
		byKey[[2]float64{r.Q, float64(r.FringeF)}] = r.NonImpErr
	}
	// At q=0.0625 (−log2 q = 4) the F=2 fringe is below the Lemma 2 law and
	// must be clearly worse than F=8.
	if byKey[[2]float64{0.0625, 2}] <= byKey[[2]float64{0.0625, 8}] {
		t.Errorf("F=2 did not degrade at small q: %+v", rows)
	}
	var buf bytes.Buffer
	PrintLemma2(&buf, rows)
	if !strings.Contains(buf.String(), "-log2 q") {
		t.Fatal("print output malformed")
	}
}

func TestEstimatorAblation(t *testing.T) {
	cfg := AblationConfig{CardA: 1000, Frac: 0.5, C: 1, Runs: 3, Seed: 8}
	rows, err := RunEstimatorAblation(cfg, []float64{0.1, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The CI subtraction must degrade sharply at the small ratio while the
	// direct estimator stays in band — the decision DESIGN.md documents.
	if rows[0].CIErr < 2*rows[0].DirectErr {
		t.Errorf("CI (%v) did not degrade vs direct (%v) at S/F0=%v",
			rows[0].CIErr, rows[0].DirectErr, rows[0].Ratio)
	}
	if rows[1].DirectErr > 0.3 {
		t.Errorf("direct estimator error %v too large at the easy end", rows[1].DirectErr)
	}
	var buf bytes.Buffer
	PrintEstimatorAblation(&buf, rows)
	if !strings.Contains(buf.String(), "Raw(Alg2)") {
		t.Fatal("print output malformed")
	}
}

// TestRunOLAPDeterministic guards the reproducibility promise: identical
// configs yield identical rows.
func TestRunOLAPDeterministic(t *testing.T) {
	cfg := OLAPConfig{
		Workload:    WorkloadB,
		Tau:         5,
		Psis:        []float64{0.6},
		Checkpoints: []int64{20000},
		Seed:        9,
	}
	a, err := RunOLAP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOLAP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || a[0] != b[0] {
		t.Fatalf("non-deterministic rows:\n%+v\n%+v", a, b)
	}
}

// TestRunDatasetOneDeterministic does the same for the Figures 4–6 runner.
func TestRunDatasetOneDeterministic(t *testing.T) {
	cfg := DatasetOneConfig{C: 1, Cards: []int{200}, Fracs: []float64{0.5}, Runs: 2, Seed: 3}
	a, err := RunDatasetOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDatasetOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || a[0] != b[0] {
		t.Fatalf("non-deterministic rows:\n%+v\n%+v", a, b)
	}
}
