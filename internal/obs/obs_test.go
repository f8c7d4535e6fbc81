package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"implicate/internal/imps"
	"implicate/internal/telemetry"
)

func TestTracerRecordAndSnapshot(t *testing.T) {
	tr := NewTracer(8)
	base := time.Now()
	tr.Record(SpanPlan, -1, 1000, base, 5*time.Microsecond)
	tr.Record(SpanApply, 3, 250, base.Add(time.Millisecond), 80*time.Microsecond)
	tr.Record(SpanRPC, int(telemetry.RPCIngest), 0, base.Add(2*time.Millisecond), time.Millisecond)

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i, sp := range spans {
		if sp.Seq != uint64(i) {
			t.Errorf("span %d has seq %d", i, sp.Seq)
		}
	}
	if spans[0].Kind != SpanPlan || spans[0].Arg != -1 || spans[0].Units != 1000 {
		t.Errorf("plan span %+v", spans[0])
	}
	if spans[1].Kind != SpanApply || spans[1].Arg != 3 {
		t.Errorf("apply span %+v", spans[1])
	}
	if spans[1].Dur != int64(80*time.Microsecond) {
		t.Errorf("apply dur %d", spans[1].Dur)
	}
	if spans[2].Start != base.Add(2*time.Millisecond).UnixNano() {
		t.Errorf("rpc start %d", spans[2].Start)
	}
	if tr.Recorded() != 3 {
		t.Errorf("recorded %d", tr.Recorded())
	}
}

func TestTracerLapsKeepNewest(t *testing.T) {
	tr := NewTracer(4)
	base := time.Now()
	for i := 0; i < 10; i++ {
		tr.Record(SpanApply, i, int64(i), base, time.Microsecond)
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want ring capacity 4", len(spans))
	}
	for i, sp := range spans {
		if want := uint64(6 + i); sp.Seq != want {
			t.Errorf("span %d seq %d, want %d (newest four)", i, sp.Seq, want)
		}
		if int(sp.Arg) != 6+i {
			t.Errorf("span %d arg %d", i, sp.Arg)
		}
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.Record(SpanPlan, 0, 0, time.Now(), 0) // must not panic
	tr.Span(SpanPlan, 0, 0, time.Now())
	if tr.Snapshot() != nil || tr.Cap() != 0 || tr.Recorded() != 0 {
		t.Error("nil tracer not inert")
	}
}

// TestTracerConcurrent hammers one small ring from concurrent writers while
// readers snapshot — run under -race. Every returned span must be coherent:
// its Arg equals its writer id and its Units its iteration, never a mix.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	const writers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := time.Now()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Arg and Units carry the same value so a torn span is
				// detectable as a mismatch.
				tr.Record(SpanApply, g*1_000_000+i, int64(g*1_000_000+i), base, time.Duration(i))
			}
		}(g)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, sp := range tr.Snapshot() {
			if int64(sp.Arg) != sp.Units {
				t.Errorf("torn span: arg %d, units %d", sp.Arg, sp.Units)
			}
			if sp.Kind != SpanApply {
				t.Errorf("torn span kind %v", sp.Kind)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestSpanCodecRoundTrip: a leaf's dump — its tracer's ring with empty
// node labels — survives the span dump codec, and corruption is refused.
func TestSpanCodecRoundTrip(t *testing.T) {
	tr := NewTracer(8)
	base := time.Now()
	tr.Record(SpanCheckpoint, 2, 4096, base, 3*time.Millisecond)
	tr.Record(SpanMerge, -1, 512, base, 40*time.Microsecond)
	var want []FleetSpan
	for _, sp := range tr.Snapshot() {
		want = append(want, FleetSpan{Span: sp})
	}

	enc := EncodeFleetTrace(want)
	got, err := DecodeFleetTrace(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: got %+v want %+v", i, got[i], want[i])
		}
	}

	if _, err := DecodeFleetTrace(EncodeFleetTrace(nil)); err != nil {
		t.Errorf("empty dump: %v", err)
	}
	if _, err := DecodeFleetTrace(enc[:len(enc)-1]); err == nil {
		t.Error("truncated span dump accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[len(fleetMagic)+4+4+8] = 0xFF // first span's kind byte, after its empty label
	if _, err := DecodeFleetTrace(bad); err == nil {
		t.Error("unknown span kind accepted")
	}
}

func sampleHealth() []imps.HealthReport {
	return []imps.HealthReport{
		{
			Stmt: 0, Kind: "sharded", Query: "SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B",
			Tuples: 100000, MemEntries: 1920, MemBytes: 1 << 20,
			BitmapFill: 0.42, LeftmostZero: 6.5,
			FringeTracked: 800, FringePairs: 1100, FringeTombstones: 20,
			FringeEvictions: 7, FringeWidth: 4, RelErr: 0.12,
		},
		{Stmt: 1, Kind: "exact", Query: "q", Shared: true, Tuples: 100000, MemEntries: 5, MemBytes: 640,
			RelErr: math.Inf(1)},
	}
}

func TestHealthCodecRoundTrip(t *testing.T) {
	want := sampleHealth()
	got, err := DecodeHealth(EncodeHealth(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d reports, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("report %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if !math.IsInf(got[1].RelErr, 1) {
		t.Error("+Inf rel-err did not round-trip")
	}

	if _, err := DecodeHealth(EncodeHealth(nil)); err != nil {
		t.Errorf("empty dump: %v", err)
	}
	enc := EncodeHealth(want)
	if _, err := DecodeHealth(enc[:len(enc)-2]); err == nil {
		t.Error("truncated health dump accepted")
	}
	if _, err := DecodeHealth(append(append([]byte(nil), enc...), 9)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestWriteMetrics(t *testing.T) {
	var set telemetry.Set
	set.AddTuples(123456)
	set.AddBatch()
	set.ObserveQueueDepth(9)
	set.AddPoolSaturation()
	set.ConfigureWorkers(2)
	set.AddWorkerTask(0, 100)
	set.AddWorkerTask(1, 50)
	set.Observe(telemetry.RPCIngest, 700*time.Microsecond)
	set.Observe(telemetry.RPCQuery, 3*time.Microsecond)

	var b strings.Builder
	if err := WriteMetrics(&b, set.Snapshot(), sampleHealth()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"imps_tuples_ingested_total 123456",
		"imps_queue_high_water 9",
		"imps_pool_saturation_total 1",
		`imps_worker_units_total{worker="1"} 50`,
		`imps_rpc_requests_total{rpc="IngestBatch"} 1`,
		`imps_rpc_latency_seconds{rpc="IngestBatch",quantile="0.99"}`,
		`imps_stmt_bitmap_fill{stmt="0",kind="sharded",shared="false"} 0.42`,
		`imps_stmt_fringe_evictions_total{stmt="0",kind="sharded",shared="false"} 7`,
		`imps_stmt_rel_err{stmt="1",kind="exact",shared="true"} +Inf`,
		"# TYPE imps_rpc_latency_seconds summary",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// An RPC with no observations exports no quantile series.
	if strings.Contains(out, `imps_rpc_latency_seconds{rpc="SnapshotMerge"`) {
		t.Error("quantiles exported for an unobserved RPC")
	}
}

// fakeState is a canned AdminState for mux tests.
type fakeState struct {
	sn     telemetry.Snapshot
	health []imps.HealthReport
	spans  []Span
}

func (f *fakeState) StatsSnapshot() telemetry.Snapshot  { return f.sn }
func (f *fakeState) HealthReports() []imps.HealthReport { return f.health }
func (f *fakeState) TraceSpans() []Span                 { return f.spans }

func TestAdminMux(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(SpanRPC, int(telemetry.RPCQuery), 0, time.Now(), 42*time.Microsecond)
	var set telemetry.Set
	set.AddTuples(7)
	st := &fakeState{sn: set.Snapshot(), health: sampleHealth(), spans: tr.Snapshot()}
	srv := httptest.NewServer(NewAdminMux(st))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz: %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "imps_tuples_ingested_total 7") {
		t.Errorf("/metrics: %d\n%s", code, body)
	}
	code, body := get("/trace")
	if code != 200 {
		t.Fatalf("/trace: %d", code)
	}
	var spans []jsonSpan
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("/trace not JSON: %v\n%s", err, body)
	}
	if len(spans) != 1 || spans[0].Kind != "rpc" || spans[0].DurNS != int64(42*time.Microsecond) {
		t.Errorf("/trace spans %+v", spans)
	}
	if strings.Contains(body, `"node"`) {
		t.Errorf("single-node /trace carries a node label:\n%s", body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline: %d", code)
	}
}
