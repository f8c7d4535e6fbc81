package tenant

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"implicate/internal/exact"
	"implicate/internal/imps"
	"implicate/internal/stream"
)

const testSQL = "SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B WITH SUPPORT >= 1, MULTIPLICITY <= 64, CONFIDENCE >= 0.0"

func testSchema(t *testing.T) *stream.Schema {
	t.Helper()
	return stream.MustSchema("A", "B")
}

func testBackends() Backends {
	return Backends{"exact": func(cond imps.Conditions) (imps.Estimator, error) {
		return exact.NewCounter(cond)
	}}
}

func testConfig(name string) Config {
	return Config{Name: name, Queries: []string{testSQL}, Backend: "exact"}
}

func TestValidName(t *testing.T) {
	for _, good := range []string{"a", "acme", "Acme-2.prod_x", strings.Repeat("n", MaxNameLen)} {
		if !ValidName(good) {
			t.Errorf("ValidName(%q) = false", good)
		}
	}
	for _, bad := range []string{"", DefaultName, ".", "..", "a/b", "a\\b", "a b", "ü", strings.Repeat("n", MaxNameLen+1)} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
}

func TestNewValidation(t *testing.T) {
	schema, backends := testSchema(t), testBackends()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"bad name", testConfig("no/slash")},
		{"reserved", testConfig(DefaultName)},
		{"no queries", Config{Name: "t", Backend: "exact"}},
		{"bad backend", Config{Name: "t", Queries: []string{testSQL}, Backend: "nope"}},
		{"negative", Config{Name: "t", Queries: []string{testSQL}, Backend: "exact", Rate: -1}},
	} {
		if _, _, err := New(tc.cfg, schema, backends, "", 0); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestRateQuota(t *testing.T) {
	cfg := testConfig("t")
	cfg.Rate = 1000
	cfg.Burst = 500
	tn, resumed, err := New(cfg, testSchema(t), testBackends(), "", 0)
	if err != nil || resumed {
		t.Fatalf("New: %v resumed=%v", err, resumed)
	}
	now := time.Unix(1000, 0)
	if q := tn.Admit(500, now); q != nil {
		t.Fatalf("burst-sized batch refused: %v", q)
	}
	q := tn.Admit(100, now)
	if q == nil {
		t.Fatal("over-rate batch admitted")
	}
	if q.RetryAfter <= 0 || q.RetryAfter > time.Second {
		t.Fatalf("retry hint %v, want ~100ms", q.RetryAfter)
	}
	// 100ms refills 100 tokens at 1000/s.
	if q := tn.Admit(100, now.Add(100*time.Millisecond)); q != nil {
		t.Fatalf("refilled batch refused: %v", q)
	}
	if got := tn.Stats().QuotaRefusals; got != 1 {
		t.Fatalf("quota refusals %d, want 1", got)
	}
}

func TestMemQuota(t *testing.T) {
	cfg := testConfig("t")
	cfg.MemBudget = 1 // one byte: any applied state trips it
	tn, _, err := New(cfg, testSchema(t), testBackends(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	if q := tn.Admit(10, now); q != nil {
		t.Fatalf("empty tenant refused: %v", q)
	}
	// Apply a tuple directly and refresh the assessment the way the pool
	// callback does.
	for _, st := range tn.Engine().Statements() {
		st.ProcessBatch([]stream.Tuple{{"a", "b"}})
	}
	tn.NoteApplied(1)
	q := tn.Admit(10, now)
	if q == nil {
		t.Fatal("over-budget tenant admitted")
	}
	if q.RetryAfter != 0 {
		t.Fatalf("memory refusal carries retry hint %v, want 0", q.RetryAfter)
	}
	if st := tn.Stats(); st.MemBytes == 0 || st.MemBudget != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	schema, backends := testSchema(t), testBackends()
	tn, resumed, err := New(testConfig("acme"), schema, backends, dir, 0)
	if err != nil || resumed {
		t.Fatalf("New: %v resumed=%v", err, resumed)
	}
	for _, st := range tn.Engine().Statements() {
		st.ProcessBatch([]stream.Tuple{{"a", "b"}, {"c", "d"}})
	}
	tn.Engine().AddTuples(2)
	if err := tn.FinalCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if tn.CheckpointPath() != filepath.Join(dir, "acme.ckpt") {
		t.Fatalf("checkpoint path %q", tn.CheckpointPath())
	}

	re, resumed, err := New(testConfig("acme"), schema, backends, dir, 0)
	if err != nil || !resumed {
		t.Fatalf("resume: %v resumed=%v", err, resumed)
	}
	if re.Engine().Tuples() != 2 {
		t.Fatalf("resumed tuples %d, want 2", re.Engine().Tuples())
	}
	want, _ := tn.Engine().MarshalBinary()
	got, _ := re.Engine().MarshalBinary()
	if string(want) != string(got) {
		t.Fatal("resumed engine state differs from checkpointed state")
	}
}

func TestRegistryAuth(t *testing.T) {
	key := []byte("server-key")
	r := NewRegistry(key)
	tn, _, err := New(testConfig("acme"), testSchema(t), testBackends(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Add(tn); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(tn); err == nil {
		t.Fatal("duplicate Add accepted")
	}
	tok := Token(key, "acme")
	if got, err := r.Authenticate("acme", tok); err != nil || got != tn {
		t.Fatalf("good token refused: %v", err)
	}
	if _, err := r.Authenticate("acme", "wrong"); err == nil {
		t.Fatal("bad token accepted")
	}
	if _, err := r.Authenticate("ghost", Token(key, "ghost")); err == nil {
		t.Fatal("unknown tenant accepted")
	}

	// Keyless registries accept any token for existing tenants only.
	open := NewRegistry(nil)
	open.Add(tn)
	if _, err := open.Authenticate("acme", "anything"); err != nil {
		t.Fatalf("keyless auth refused: %v", err)
	}
	if _, err := open.Authenticate("ghost", "anything"); err == nil {
		t.Fatal("keyless auth invented a tenant")
	}

	if got := len(r.List()); got != 1 || r.Len() != 1 {
		t.Fatalf("list %d len %d", got, r.Len())
	}
	if _, ok := r.Remove("acme"); !ok {
		t.Fatal("remove failed")
	}
	if _, ok := r.Get("acme"); ok {
		t.Fatal("removed tenant still resolves")
	}
}
