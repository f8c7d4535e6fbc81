package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestPercentile(t *testing.T) {
	var s []float64
	for i := 1; i <= 200; i++ {
		s = append(s, float64(i))
	}
	if v, err := percentile(s, 0.50); err != nil || v != 100 {
		t.Errorf("p50 of 1..200 = %v, %v; want 100", v, err)
	}
	if v, err := percentile(s, 0.90); err != nil || v != 180 {
		t.Errorf("p90 of 1..200 = %v, %v; want 180", v, err)
	}
	// 200 samples leave 2 beyond p99 and 19 beyond p90.
	if _, err := percentile(s, 0.99); err == nil {
		t.Error("p99 of 200 samples has 2 samples beyond it and must be refused")
	}
	if _, err := percentile(s[:100], 0.90); err != nil {
		t.Errorf("p90 of 100 samples has exactly 10 beyond it and must be accepted: %v", err)
	}
	if _, err := percentile(s[:99], 0.90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
}

func TestMedianMAD(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	// The median is 4; deviations from it are 3, 1, 1, 0, 5: their median is 1.
	if d := mad([]float64{1, 5, 3, 4, 9}); d != 1 {
		t.Errorf("MAD = %v, want 1", d)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a: 10..50 is covered once
		{ID: 4, Parent: 1, Name: "a", Start: 60, End: 70},
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 45},
		{ID: 6, Parent: 1, Name: "b", Start: 90, End: 120}, // clipped to the parent's end
	}
	got := selfTimes(spans)
	want := map[string]selfStat{
		"root": {1, 100 - (40 + 10 + 10)},
		"a":    {2, 20 + 10},
		"b":    {2, (30 - 20) + 30},
		"c":    {1, 20},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tf := traceFile{
		Workload:    "serve_tcp",
		Env:         environment(7),
		BatchTuples: 1000,
		Spans: []span{
			{ID: 1, Name: "replay.batch", Batch: 3, Start: 5, End: 50},
			{ID: 2, Parent: 1, Name: "stream.decode", Batch: 3, Start: 6, End: 20},
		},
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeTrace(path, tf); err != nil {
		t.Fatal(err)
	}
	back, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tf) {
		t.Errorf("read back %+v, wrote %+v", back, tf)
	}
	var buf bytes.Buffer
	if err := summarize(&buf, path); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("stream.decode")) {
		t.Errorf("summary lacks the stage row:\n%s", buf.String())
	}
}

func TestGuard(t *testing.T) {
	env := envInfo{NProc: 2, GOMAXPROCS: 2}
	if err := guard(env, 2); err != nil {
		t.Errorf("2 procs, 2 connections on 2 cores refused: %v", err)
	}
	if guard(envInfo{NProc: 2, GOMAXPROCS: 4}, 2) == nil {
		t.Error("GOMAXPROCS above nproc must be refused")
	}
	if guard(env, 3) == nil {
		t.Error("more ingest connections than processors must be refused")
	}
}

// TestSeedDeterminism: the same seed gives identical payload bytes and
// identical verified figures; two different seeds give different inputs and
// both pass every correctness check.
func TestSeedDeterminism(t *testing.T) {
	sz := quickSizes()
	sp, _ := specByName("serve_tcp")
	build := func(seed int64) (*inputs, verified) {
		t.Helper()
		in, err := newInputs(seed, sz.pass, sp.batch, producerCount(), true)
		if err != nil {
			t.Fatal(err)
		}
		r, err := boot(sp, in, sz)
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		if err := r.verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return in, r.v
	}
	a, va := build(5)
	b, vb := build(5)
	if va != vb {
		t.Errorf("seed 5 verified to %+v and then %+v", va, vb)
	}
	if a.exact != b.exact {
		t.Errorf("seed 5 oracle gave %v and then %v", a.exact, b.exact)
	}
	for p := range a.producers {
		if len(a.producers[p]) != len(b.producers[p]) {
			t.Fatalf("producer %d: %d vs %d batches", p, len(a.producers[p]), len(b.producers[p]))
		}
		for i := range a.producers[p] {
			if !bytes.Equal(a.producers[p][i].payload, b.producers[p][i].payload) {
				t.Fatalf("producer %d batch %d: payload bytes differ for the same seed", p, i)
			}
		}
	}
	c, _ := build(6)
	if bytes.Equal(a.producers[0][0].payload, c.producers[0][0].payload) {
		t.Error("seeds 5 and 6 produced the same first payload")
	}
}

// TestQuickSmoke runs all four workloads end to end at the quick sizes,
// untraced and traced, and checks that every declared metric is reported.
func TestQuickSmoke(t *testing.T) {
	sz := quickSizes()
	sz.region *= raceSlowdown
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res, err := runWorkload(sp, 1, sz, false, "", io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("result %+v", res)
			}
			for _, m := range endToEndMetrics {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("%s = %+v (present %v); want a positive value in %s", m.name, got, ok, m.unit)
				}
			}
			if len(res.Metrics) != len(endToEndMetrics) {
				t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(endToEndMetrics))
			}

			spans := filepath.Join(t.TempDir(), "spans.json")
			res, err = runWorkload(sp, 1, sz, true, spans, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range layerMetrics {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s = %+v (present %v); want unit %s", m.name, got, ok, m.unit)
				}
			}
			if len(res.Metrics) != len(layerMetrics) {
				t.Errorf("%d layer metrics reported, %d declared", len(res.Metrics), len(layerMetrics))
			}
			if v := res.Metrics["query.process_ns_per_tuple"].Value; !(v > 0) {
				t.Errorf("query.process_ns_per_tuple = %v, want > 0 on every workload", v)
			}
			tf, err := readTrace(spans)
			if err != nil {
				t.Fatal(err)
			}
			if tf.Workload != sp.name || len(tf.Spans) == 0 {
				t.Errorf("span file: workload %q, %d spans", tf.Workload, len(tf.Spans))
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in the code in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d in the code", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q (%q), code has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d in the code", len(bj.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bj.EndToEnd {
		if want := endToEndMetrics[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end metric %d: %+v, code has %+v", i, m, want)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d in the code", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		if want := layerMetrics[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d: %+v, code has %+v", i, m, want)
		}
	}
}
