package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"implicate"
	"implicate/internal/exact"
	"implicate/internal/stream"
)

const testStream = "Source\tDestination\tService\tTime\n" +
	"S1\tD2\tWWW\tMorning\n" +
	"S2\tD1\tFTP\tMorning\n" +
	"S1\tD3\tWWW\tMorning\n" +
	"S2\tD1\tP2P\tNoon\n" +
	"S1\tD3\tP2P\tAfternoon\n" +
	"S1\tD3\tWWW\tAfternoon\n" +
	"S1\tD3\tP2P\tAfternoon\n" +
	"S3\tD3\tP2P\tNight\n"

func TestParseFlags(t *testing.T) {
	cfg, rest, err := parseFlags([]string{"-q", "SELECT COUNT(DISTINCT a) FROM s", "-backend", "all", "file.tsv"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.backend != "all" || len(rest) != 1 || rest[0] != "file.tsv" {
		t.Fatalf("parsed %+v %v", cfg, rest)
	}
	if _, _, err := parseFlags([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestValidateFlagCombinations(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ok.ckpt")
	if err := run(&config{sql: "SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination",
		backend: "exact", checkpoint: ckpt}, strings.NewReader(testStream), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		cfg     config
		wantErr string
	}{
		{"every without checkpoint", config{sql: "x", every: 100}, "-checkpoint"},
		{"negative every", config{sql: "x", every: -1, checkpoint: "f"}, "-every"},
		{"negative interval", config{sql: "x", interval: -5}, "-interval"},
		{"resume with q", config{resume: ckpt, sql: "x"}, "drop -q"},
		{"resume missing file", config{resume: filepath.Join(dir, "nope.ckpt")}, "cannot resume"},
		{"every with checkpoint ok", config{sql: "x", every: 100, checkpoint: "f"}, ""},
		{"resume existing ok", config{resume: ckpt}, ""},
		{"plain query ok", config{sql: "x"}, ""},
	}
	for _, tc := range cases {
		err := tc.cfg.validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: invalid combination accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestRunExactQuery(t *testing.T) {
	cfg := &config{
		sql:     `SELECT COUNT(DISTINCT Destination) FROM t WHERE Destination IMPLIES Source`,
		backend: "exact",
	}
	var out strings.Builder
	if err := run(cfg, strings.NewReader(testStream), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "exact=2.0") {
		t.Fatalf("output missing the exact answer:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "tuples=8") {
		t.Fatalf("output missing tuple count:\n%s", out.String())
	}
}

func TestRunAllBackendsWithInterval(t *testing.T) {
	cfg := &config{
		sql:      `SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Service`,
		backend:  "all",
		interval: 4,
		seed:     1,
	}
	var out strings.Builder
	if err := run(cfg, strings.NewReader(testStream), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(out.String(), "tuples=")
	if lines != 3 { // at 4, at 8, and the final report
		t.Fatalf("expected 3 reports, got %d:\n%s", lines, out.String())
	}
	for _, name := range []string{"nips=", "exact="} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("output missing backend %s", name)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(&config{backend: "exact"}, strings.NewReader(testStream), &strings.Builder{}); err == nil {
		t.Error("missing query accepted")
	}
	if err := run(&config{sql: "SELECT", backend: "exact"}, strings.NewReader(testStream), &strings.Builder{}); err == nil {
		t.Error("bad query accepted")
	}
	if err := run(&config{sql: "SELECT COUNT(DISTINCT a) FROM s", backend: "zzz"}, strings.NewReader(testStream), &strings.Builder{}); err == nil {
		t.Error("unknown backend accepted")
	}
	if err := run(&config{sql: "SELECT COUNT(DISTINCT a) FROM s", backend: "exact"}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Error("empty stream accepted")
	}
	// Query referencing unknown attributes fails at registration.
	if err := run(&config{sql: "SELECT COUNT(DISTINCT Nope) FROM s", backend: "exact"},
		strings.NewReader(testStream), &strings.Builder{}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestRunBinaryInput(t *testing.T) {
	// Re-encode the test stream in the binary format and query it.
	src, schema, err := stream.OpenReader(strings.NewReader(testStream))
	if err != nil {
		t.Fatal(err)
	}
	var bin strings.Builder
	w := stream.NewBinaryWriter(&bin, schema)
	for {
		tup, err := src.Next()
		if err != nil {
			break
		}
		if err := w.Write(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cfg := &config{
		sql:     `SELECT COUNT(DISTINCT Destination) FROM t WHERE Destination IMPLIES Source`,
		backend: "exact",
	}
	var out strings.Builder
	if err := run(cfg, strings.NewReader(bin.String()), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "exact=2.0") {
		t.Fatalf("binary input gave wrong answer:\n%s", out.String())
	}
}

// longStream returns a text stream with n tuples under the test schema.
func longStream(n int) string {
	var b strings.Builder
	b.WriteString("Source\tDestination\tService\tTime\n")
	svcs := []string{"WWW", "FTP", "P2P"}
	for i := 0; i < n; i++ {
		dst := "D" + strconv.Itoa((i*3)%7)
		if i%11 < 4 {
			dst = "D-solo"
		}
		fmt.Fprintf(&b, "S%d\t%s\t%s\tMorning\n", i%11, dst, svcs[i%3])
	}
	return b.String()
}

func TestRunCheckpointAndResume(t *testing.T) {
	full := longStream(60)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	sql := `SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination WITH SUPPORT >= 2, MULTIPLICITY <= 2`

	// The uninterrupted reference run.
	var want strings.Builder
	if err := run(&config{sql: sql, backend: "all", seed: 1},
		strings.NewReader(full), &want); err != nil {
		t.Fatal(err)
	}

	// The killed run: the process dies after 25 tuples (simulated by ending
	// the input early), having checkpointed along the way.
	lines := strings.SplitAfter(full, "\n")
	killed := strings.Join(lines[:1+25], "")
	if err := run(&config{sql: sql, backend: "all", seed: 1,
		checkpoint: ckpt, every: 10}, strings.NewReader(killed), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}

	// Resume over the full stream: -q is gone, the checkpoint carries the
	// queries; the final report must match the uninterrupted run's.
	var got strings.Builder
	if err := run(&config{resume: ckpt, seed: 1},
		strings.NewReader(full), &got); err != nil {
		t.Fatal(err)
	}
	wantFinal := lastLine(want.String())
	gotFinal := lastLine(got.String())
	if gotFinal != wantFinal {
		t.Fatalf("resumed run final report:\n  %s\nuninterrupted run:\n  %s", gotFinal, wantFinal)
	}
	if !strings.Contains(gotFinal, "tuples=60") {
		t.Fatalf("resumed run did not reach the end of the stream: %s", gotFinal)
	}
}

// TestRunResumeWindowedCheckpoints: impstat resumes windowed checkpoints
// of the kinds impserved's backends write — the exact counter's and the
// sketch's, each at one and at several lock stripes — and finishes with the
// answer an uninterrupted impstat run of that backend gives. An exact
// counter is "exact" at every stripe count; the row named "exact-striped"
// after the kind earlier builds wrote for it checks that.
func TestRunResumeWindowedCheckpoints(t *testing.T) {
	full := longStream(60)
	sql := `SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination WITH SUPPORT >= 2, MULTIPLICITY <= 2 WINDOW 20 EVERY 5`
	sketch := func(shards int) implicate.Backend {
		return func(cond implicate.Conditions) (implicate.Estimator, error) {
			return implicate.NewShardedSketch(cond, implicate.Options{Seed: 1}, shards)
		}
	}
	exactCounter := func(stripes int) implicate.Backend {
		return func(cond implicate.Conditions) (implicate.Estimator, error) {
			return exact.NewStriped(cond, stripes)
		}
	}
	for _, c := range []struct {
		name, kind, backend string
		build               implicate.Backend
	}{
		{"exact", "exact", "exact", exactCounter(1)},
		{"exact-striped", "exact", "exact", exactCounter(2)},
		{"nips", "nips", "nips", sketch(1)},
		{"sharded", "sharded", "nips", sketch(2)},
	} {
		t.Run(c.name, func(t *testing.T) {
			schema, err := implicate.NewSchema("Source", "Destination", "Service", "Time")
			if err != nil {
				t.Fatal(err)
			}
			eng := implicate.NewEngine(schema)
			st, err := eng.RegisterSQL(sql, c.build)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(full, "\n")[1 : 1+25] {
				eng.Process(strings.Split(line, "\t"))
			}
			if got := st.EstimatorKind(); got != c.kind {
				t.Fatalf("checkpointed kind %q, want %q", got, c.kind)
			}
			snap, err := implicate.CaptureCheckpoint(eng, 25)
			if err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(t.TempDir(), "run.ckpt")
			if err := implicate.WriteCheckpoint(ckpt, snap); err != nil {
				t.Fatal(err)
			}
			var got, want strings.Builder
			if err := run(&config{resume: ckpt, seed: 1}, strings.NewReader(full), &got); err != nil {
				t.Fatalf("resume: %v", err)
			}
			if err := run(&config{sql: sql, backend: c.backend, seed: 1}, strings.NewReader(full), &want); err != nil {
				t.Fatal(err)
			}
			if g, w := lastLine(got.String()), lastLine(want.String()); g != w || !strings.Contains(g, "tuples=60") {
				t.Fatalf("resumed run final report:\n  %s\nuninterrupted run:\n  %s", g, w)
			}
		})
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return lines[len(lines)-1]
}

func TestRunResumeErrors(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	sql := `SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination`
	if err := run(&config{sql: sql, backend: "exact", checkpoint: ckpt},
		strings.NewReader(testStream), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}

	// -resume and -q are mutually exclusive: the checkpoint owns the queries.
	if err := run(&config{resume: ckpt, sql: sql}, strings.NewReader(testStream), &strings.Builder{}); err == nil {
		t.Error("-resume with -q accepted")
	}

	// A corrupted checkpoint is rejected, not restored.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x10
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&config{resume: bad}, strings.NewReader(testStream), &strings.Builder{}); err == nil {
		t.Error("corrupt checkpoint accepted")
	}

	// A checkpoint from a different schema is rejected.
	other := "Alpha\tBeta\nx\ty\n"
	if err := run(&config{resume: ckpt}, strings.NewReader(other), &strings.Builder{}); err == nil {
		t.Error("schema-mismatched checkpoint accepted")
	}
}

func TestRunCheckpointBinaryInterval(t *testing.T) {
	// -every must be honored exactly on the batched binary path too: after a
	// run over n tuples with every=16, the final file records offset n.
	src, schema, err := stream.OpenReader(strings.NewReader(longStream(50)))
	if err != nil {
		t.Fatal(err)
	}
	var bin strings.Builder
	w := stream.NewBinaryWriter(&bin, schema)
	for {
		tup, err := src.Next()
		if err != nil {
			break
		}
		if err := w.Write(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "bin.ckpt")
	cfg := &config{
		sql:        `SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination`,
		backend:    "exact",
		checkpoint: ckpt,
		every:      16,
	}
	if err := run(cfg, strings.NewReader(bin.String()), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	snap, err := implicate.ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Offset != 50 {
		t.Fatalf("final checkpoint offset %d, want 50", snap.Offset)
	}
}
