package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"implicate/internal/core"
	"implicate/internal/exact"
	"implicate/internal/imps"
	"implicate/internal/query"
	"implicate/internal/stream"
)

func testSchema() *stream.Schema {
	return stream.MustSchema("Source", "Destination", "Service", "Time")
}

func genTuples(start, n int) []stream.Tuple {
	out := make([]stream.Tuple, 0, n)
	svcs := [...]string{"WWW", "FTP", "P2P"}
	times := [...]string{"Morning", "Noon", "Night"}
	for i := start; i < start+n; i++ {
		src := "S" + strconv.Itoa(i%41)
		dst := "D" + strconv.Itoa((i*3)%13)
		if i%41 < 14 {
			dst = "D-solo"
		}
		out = append(out, stream.Tuple{src, dst, svcs[i%3], times[(i/3)%3]})
	}
	return out
}

func nipsBackend(cond imps.Conditions) (imps.Estimator, error) {
	return core.NewSketch(cond, core.Options{Bitmaps: 64, Seed: 5})
}

func shardedBackend(cond imps.Conditions) (imps.Estimator, error) {
	return core.NewShardedSketch(cond, core.Options{Bitmaps: 64, Seed: 5}, 2)
}

func exactBackend(cond imps.Conditions) (imps.Estimator, error) {
	return exact.NewCounter(cond)
}

var testQueries = []struct {
	sql     string
	backend query.Backend
}{
	{`SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.5 TOP 1`, exactBackend},
	{`SELECT COUNT(DISTINCT Source) FROM t WHERE Source NOT IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.5 TOP 1`, exactBackend},
	{`SELECT COUNT(DISTINCT Destination) FROM t WHERE Destination IMPLIES Source WITH SUPPORT >= 2, MULTIPLICITY <= 3`, nipsBackend},
	{`SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES Destination WITH SUPPORT >= 2, MULTIPLICITY <= 2 WINDOW 600 EVERY 60`, nipsBackend},
	{`SELECT COUNT(DISTINCT Service) FROM t WHERE Service IMPLIES Source WITH MULTIPLICITY <= 50, CONFIDENCE >= 0.1 TOP 1`, shardedBackend},
}

func buildEngine(t *testing.T) *query.Engine {
	t.Helper()
	e := query.NewEngine(testSchema())
	for _, reg := range testQueries {
		if _, err := e.RegisterSQL(reg.sql, reg.backend); err != nil {
			t.Fatalf("register %q: %v", reg.sql, err)
		}
	}
	return e
}

func resolver(q query.Query, kind string) (query.Backend, error) {
	switch kind {
	case "nips":
		return nipsBackend, nil
	case "exact":
		return exactBackend, nil
	}
	return nil, fmt.Errorf("no backend for kind %q", kind)
}

// TestKillAndResume is the subsystem's headline guarantee: kill a run at an
// arbitrary point, restore from its checkpoint file, replay the stream from
// the recorded offset — and every statement, over every backend, answers
// exactly what an uninterrupted run answers. (All test backends are
// deterministic given the tuple order, and a checkpoint carries full
// estimator state, so "within estimator error" tightens to "identical".)
func TestKillAndResume(t *testing.T) {
	const total, killAt = 5000, 2311
	tuples := genTuples(0, total)

	// The uninterrupted reference run.
	ref := buildEngine(t)
	if _, err := ref.Consume(stream.NewMemSource(tuples)); err != nil {
		t.Fatal(err)
	}

	// The killed run: consume killAt tuples, checkpoint, drop the engine.
	path := filepath.Join(t.TempDir(), "impstat.ckpt")
	{
		victim := buildEngine(t)
		src := stream.NewMemSource(tuples)
		for i := 0; i < killAt; i++ {
			tu, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			victim.Process(tu)
		}
		snap, err := Capture(victim, src.Pos())
		if err != nil {
			t.Fatal(err)
		}
		if err := Write(path, snap); err != nil {
			t.Fatal(err)
		}
	}

	// Recovery: read the file, restore, skip, replay.
	snap, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Offset != killAt {
		t.Fatalf("checkpoint offset %d, want %d", snap.Offset, killAt)
	}
	recovered, err := Restore(snap, testSchema(), resolver)
	if err != nil {
		t.Fatal(err)
	}
	src := stream.NewMemSource(tuples)
	if err := src.SkipTuples(snap.Offset); err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.Consume(src); err != nil {
		t.Fatal(err)
	}

	if recovered.Tuples() != ref.Tuples() {
		t.Fatalf("recovered engine saw %d tuples, reference %d", recovered.Tuples(), ref.Tuples())
	}
	refStmts, recStmts := ref.Statements(), recovered.Statements()
	if len(refStmts) != len(recStmts) {
		t.Fatalf("recovered %d statements, want %d", len(recStmts), len(refStmts))
	}
	for i := range refStmts {
		if got, want := recStmts[i].Count(), refStmts[i].Count(); got != want {
			t.Fatalf("statement %d (%s): recovered count %g, uninterrupted count %g",
				i, refStmts[i].Query(), got, want)
		}
	}
}

// TestKillAndResumeFromBinaryFile runs the same recovery against an on-disk
// binary stream file, exercising BinaryReader.SkipTuples.
func TestKillAndResumeFromBinaryFile(t *testing.T) {
	const total, killAt = 3000, 1472
	tuples := genTuples(0, total)
	dir := t.TempDir()

	streamPath := filepath.Join(dir, "stream.bin")
	f, err := os.Create(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	w := stream.NewBinaryWriter(f, testSchema())
	for _, tu := range tuples {
		if err := w.Write(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	openStream := func() *stream.BinaryReader {
		t.Helper()
		f, err := os.Open(streamPath)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		r, err := stream.NewBinaryReader(f)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	ref := buildEngine(t)
	if _, err := ref.Consume(openStream()); err != nil {
		t.Fatal(err)
	}

	ckptPath := filepath.Join(dir, "impstat.ckpt")
	{
		victim := buildEngine(t)
		src := openStream()
		for i := 0; i < killAt; i++ {
			tu, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			victim.Process(tu)
		}
		snap, err := Capture(victim, src.Pos())
		if err != nil {
			t.Fatal(err)
		}
		if err := Write(ckptPath, snap); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := Read(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := Restore(snap, testSchema(), resolver)
	if err != nil {
		t.Fatal(err)
	}
	src := openStream()
	if err := src.SkipTuples(snap.Offset); err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.Consume(src); err != nil {
		t.Fatal(err)
	}

	refStmts, recStmts := ref.Statements(), recovered.Statements()
	for i := range refStmts {
		if got, want := recStmts[i].Count(), refStmts[i].Count(); got != want {
			t.Fatalf("statement %d (%s): recovered count %g, uninterrupted count %g",
				i, refStmts[i].Query(), got, want)
		}
	}
}

func capturedFile(t *testing.T, n int) []byte {
	t.Helper()
	e := buildEngine(t)
	e.ProcessBatch(genTuples(0, n))
	snap, err := Capture(e, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	return Encode(snap)
}

// TestTruncatedCheckpointRejected: every truncation of a checkpoint file
// fails with a clear error — never a partial or wrong restore.
func TestTruncatedCheckpointRejected(t *testing.T) {
	data := capturedFile(t, 400)
	for n := 0; n < len(data); n++ {
		if n > 256 && n%17 != 0 && n != len(data)-1 {
			continue
		}
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(data))
		}
	}
}

// TestBitFlippedCheckpointRejected: any single bit flip anywhere in the
// file is caught (by the magic, the version gate, or the CRC).
func TestBitFlippedCheckpointRejected(t *testing.T) {
	data := capturedFile(t, 400)
	step := len(data)/997 + 1
	for off := 0; off < len(data); off += step {
		for _, bit := range []uint{0, 3, 7} {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << bit
			if _, err := Decode(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded without error", off, bit)
			}
		}
	}
}

// TestCorruptCheckpointErrorsAreClear: the rejection messages name the
// problem, so an operator can tell a corrupt file from a version skew.
func TestCorruptCheckpointErrorsAreClear(t *testing.T) {
	data := capturedFile(t, 100)

	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-1] ^= 0x40
	if _, err := Decode(flipped); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit flip error does not mention the checksum: %v", err)
	}

	skewed := append([]byte(nil), data...)
	skewed[len(fileMagic)] = 99 // version field
	// Re-stamp nothing: version sits outside the CRC-guarded payload.
	if _, err := Decode(skewed); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew error does not mention the version: %v", err)
	}
}

// TestWriteIsAtomicAndReplaces: Write replaces an existing checkpoint and
// leaves no temporary files behind.
func TestWriteIsAtomicAndReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	if err := Write(path, Snapshot{Offset: 1, Engine: []byte("one")}); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, Snapshot{Offset: 2, Engine: []byte("two")}); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Offset != 2 || string(snap.Engine) != "two" {
		t.Fatalf("read back offset %d engine %q", snap.Offset, snap.Engine)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory has %v, want just the checkpoint", names)
	}
}

// TestPeriodic: snapshots land every Every tuples of progress, not more.
func TestPeriodic(t *testing.T) {
	e := buildEngine(t)
	p := &Periodic{Path: filepath.Join(t.TempDir(), "p.ckpt"), Every: 100}
	writes := 0
	for off := int64(25); off <= 1000; off += 25 {
		wrote, err := p.Maybe(e, off)
		if err != nil {
			t.Fatal(err)
		}
		if wrote {
			writes++
		}
	}
	if writes != 10 {
		t.Fatalf("wrote %d checkpoints over 1000 tuples at Every=100, want 10", writes)
	}
	if _, err := Read(p.Path); err != nil {
		t.Fatal(err)
	}
}
