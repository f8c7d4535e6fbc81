package obs

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"implicate/internal/imps"
	"implicate/internal/telemetry"
	"implicate/internal/wire"
)

// TestFleetTraceCodecRoundTrip pins the IMPF wire format: node labels and
// full span identity survive, the sniffer tells the two Trace payloads
// apart, and corruption is refused rather than misread.
func TestFleetTraceCodecRoundTrip(t *testing.T) {
	now := time.Now().UnixNano()
	spans := []FleetSpan{
		{Node: "coord", Span: Span{Seq: 1, Kind: SpanDeliver, Arg: 2, Start: now, Dur: 1500, Units: 250, Trace: 0xa1, ID: 0xb1}},
		{Node: "leaf0", Span: Span{Seq: 2, Kind: SpanRPC, Arg: 0, Start: now + 10, Dur: 900, Trace: 0xa1, Parent: 0xb1, ID: 0xc1}},
		{Node: "leaf0", Span: Span{Seq: 3, Kind: SpanApply, Arg: 1, Start: now + 20, Dur: 300, Units: 250, Trace: 0xa1, Parent: 0xb1}},
	}
	enc := EncodeFleetTrace(spans)
	if !IsFleetTrace(enc) {
		t.Fatal("fleet trace not recognized by the sniffer")
	}
	if IsFleetTrace(EncodeSpans(nil)) {
		t.Fatal("single-node dump misread as a fleet trace")
	}
	got, err := DecodeFleetTrace(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spans) {
		t.Fatalf("decoded %d spans, want %d", len(got), len(spans))
	}
	for i := range spans {
		if got[i] != spans[i] {
			t.Errorf("span %d: %+v, want %+v", i, got[i], spans[i])
		}
	}

	if _, err := DecodeFleetTrace(enc[:len(enc)-1]); err == nil {
		t.Error("truncated fleet trace accepted")
	}
	if _, err := DecodeFleetTrace(append(append([]byte(nil), enc...), 7)); err == nil {
		t.Error("fleet trace with trailing bytes accepted")
	}

	// A span kind from a future build must be refused, exactly like the
	// single-node codec: the append-only kind list is only safe to extend
	// because old decoders refuse what they cannot name.
	e := wire.NewEncoder(96)
	e.Raw([]byte(fleetMagic))
	e.U32(1)
	e.Str("leaf9")
	e.U64(1)
	e.U8(uint8(numSpanKinds))
	e.U32(0)
	e.I64(0)
	e.I64(0)
	e.I64(0)
	e.U64(0)
	e.U64(0)
	e.U64(0)
	if _, err := DecodeFleetTrace(e.Bytes()); err == nil {
		t.Error("unknown span kind accepted")
	}
}

// TestSpanDeliverKind pins the new kind's name and its acceptance by the
// single-node codec (the coordinator's own ring travels through it when a
// plain leaf client asks for a trace).
func TestSpanDeliverKind(t *testing.T) {
	if got := SpanDeliver.String(); got != "deliver" {
		t.Fatalf("SpanDeliver.String() = %q", got)
	}
	enc := EncodeSpans([]Span{{Seq: 1, Kind: SpanDeliver, Arg: 0, Units: 9}})
	got, err := DecodeSpans(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Kind != SpanDeliver {
		t.Fatalf("round trip lost the deliver kind: %+v", got)
	}
}

// TestOrderFleetTrace pins the assembly order: roots by start time, each
// child after its parent, orphans surfacing as roots, and a corrupt parent
// cycle terminating with every span still present.
func TestOrderFleetTrace(t *testing.T) {
	spans := []FleetSpan{
		{Node: "leaf1", Span: Span{Seq: 5, Kind: SpanRPC, Start: 300, Trace: 2, Parent: 20, ID: 21}},
		{Node: "coord", Span: Span{Seq: 2, Kind: SpanDeliver, Start: 200, Trace: 2, ID: 20}},
		{Node: "coord", Span: Span{Seq: 1, Kind: SpanDeliver, Start: 100, Trace: 1, ID: 10}},
		{Node: "leaf0", Span: Span{Seq: 4, Kind: SpanApply, Start: 150, Trace: 1, Parent: 10, ID: 11}},
		{Node: "leaf0", Span: Span{Seq: 3, Kind: SpanPlan, Start: 110, Trace: 1, Parent: 10, ID: 12}},
		// Orphan: its parent span was lapped out of the ring.
		{Node: "leaf2", Span: Span{Seq: 6, Kind: SpanMerge, Start: 50, Trace: 9, Parent: 0xdead, ID: 30}},
	}
	got := OrderFleetTrace(spans)
	if len(got) != len(spans) {
		t.Fatalf("ordered %d spans, want %d", len(got), len(spans))
	}
	var seqs []uint64
	for _, s := range got {
		seqs = append(seqs, s.Seq)
	}
	// Roots by start: orphan(50), trace1 deliver(100), trace2 deliver(200).
	// Children directly after their parent, by start.
	want := []uint64{6, 1, 3, 4, 2, 5}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("order %v, want %v", seqs, want)
		}
	}

	cycle := []FleetSpan{
		{Node: "a", Span: Span{Seq: 1, Trace: 1, Parent: 2, ID: 1}},
		{Node: "a", Span: Span{Seq: 2, Trace: 1, Parent: 1, ID: 2}},
	}
	if got := OrderFleetTrace(cycle); len(got) != 2 {
		t.Fatalf("cycle dropped spans: %d of 2", len(got))
	}
}

// fakeFleetState is a canned FleetAdminState for rendering tests.
type fakeFleetState struct {
	coord  telemetry.Snapshot
	tel    []LeafTelemetry
	stats  []LeafStatsRow
	health []LeafHealthRow
	trace  []FleetSpan
	parts  int
}

func (f *fakeFleetState) CoordStats() telemetry.Snapshot  { return f.coord }
func (f *fakeFleetState) FleetTelemetry() []LeafTelemetry { return f.tel }
func (f *fakeFleetState) FleetStats() []LeafStatsRow      { return f.stats }
func (f *fakeFleetState) FleetHealth() []LeafHealthRow    { return f.health }
func (f *fakeFleetState) FleetTrace() []FleetSpan         { return f.trace }
func (f *fakeFleetState) VirtualPartitions() int          { return f.parts }

// TestWriteFleetMetricsEscapesLabels: leaf names are operator input and land
// in label values — quotes, backslashes and newlines must escape per the
// exposition format instead of splitting a series line.
func TestWriteFleetMetricsEscapesLabels(t *testing.T) {
	evil := "we\"ird\\leaf\nx"
	var deliver telemetry.Histogram
	deliver.Counts[12] = 3
	st := &fakeFleetState{
		parts: 64,
		tel: []LeafTelemetry{{
			Name: evil, State: "up", Parts: 64,
			JournalEntries: 4, JournalTuples: 400, Delivery: deliver,
		}},
		stats: []LeafStatsRow{{Name: evil, Stats: telemetry.Snapshot{TuplesIngested: 400}}},
		health: []LeafHealthRow{{Name: evil, Reports: []imps.HealthReport{
			{Stmt: 0, Kind: "ni\"ps", RelErr: 0.25},
		}}},
	}
	var b strings.Builder
	if err := WriteFleetMetrics(&b, st); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	escaped := `we\"ird\\leaf\nx`
	for _, want := range []string{
		fmt.Sprintf(`imps_coord_leaf_up{leaf="%s"} 1`, escaped),
		fmt.Sprintf(`imps_coord_leaf_journal_tuples_total{leaf="%s"} 400`, escaped),
		fmt.Sprintf(`imps_coord_leaf_delivery_seconds{leaf="%s",quantile="0.5"}`, escaped),
		fmt.Sprintf(`imps_leaf_tuples_ingested_total{leaf="%s"} 400`, escaped),
		fmt.Sprintf(`imps_leaf_stmt_rel_err{leaf="%s",stmt="0",kind="ni\"ps"} 0.25`, escaped),
		fmt.Sprintf(`imps_leaf_worst_rel_err{leaf="%s"} 0.25`, escaped),
		"imps_coord_virtual_partitions 64",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
	// No raw quote or newline may survive inside a label value: every line
	// must still parse as `name{labels} value`.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, evil) {
			t.Errorf("unescaped label value leaked: %q", line)
		}
	}
}

// TestFleetRollupSkipsForeignLeafSnapshot pins the telemetry compatibility
// rule: a coordinator and its leaves are deployed from one build. A leaf
// from another build answers Stats in a format this build does not speak;
// DecodeSnapshot refuses it, and the coordinator's roll-up skips that leaf
// exactly as it skips an unreachable one (Coordinator.FleetStats drops
// every reply that fails to decode). So /fleet shows -1 for the leaf,
// /metrics carries no imps_leaf_* series for it, and the other leaves' rows
// are intact.
func TestFleetRollupSkipsForeignLeafSnapshot(t *testing.T) {
	var cur telemetry.Set
	cur.AddTuples(1234)
	cur.AddBatch()
	cur.Observe(telemetry.RPCIngest, 3*time.Millisecond)
	current := cur.Snapshot().Encode()

	// An older build's quiet snapshot, hand-built: version byte 3, nine
	// counters, an empty worker block and this build's RPC histograms, with
	// none of the tenant, fine-grained UDP or shard blocks.
	e := wire.NewEncoder(4096)
	e.Raw([]byte{'I', 'M', 'P', 'T', 3})
	e.I64(999)
	for i := 0; i < 8; i++ {
		e.I64(0)
	}
	e.U32(0)
	e.U32(uint32(telemetry.NumRPCs))
	e.U32(telemetry.HistBuckets)
	for i := 0; i < int(telemetry.NumRPCs)*telemetry.HistBuckets; i++ {
		e.U64(0)
	}
	foreign := e.Bytes()
	if _, err := telemetry.DecodeSnapshot(foreign); err == nil {
		t.Fatal("a foreign-version snapshot decoded")
	}

	// The roll-up as the coordinator builds it: one Stats reply per up leaf,
	// kept only if it decodes.
	st := &fakeFleetState{}
	for _, leaf := range []struct {
		name  string
		reply []byte
	}{{"leaf-a", current}, {"old-leaf", foreign}, {"leaf-c", current}} {
		st.tel = append(st.tel, LeafTelemetry{Name: leaf.name, State: "up"})
		if sn, err := telemetry.DecodeSnapshot(leaf.reply); err == nil {
			st.stats = append(st.stats, LeafStatsRow{Name: leaf.name, Stats: sn})
		}
	}

	var b strings.Builder
	if err := WriteFleetMetrics(&b, st); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "imps_leaf_") && strings.Contains(line, `leaf="old-leaf"`) {
			t.Errorf("foreign leaf has a leaf-reported series: %q", line)
		}
	}
	for _, want := range []string{
		`imps_coord_leaf_up{leaf="old-leaf"} 1`,
		`imps_leaf_tuples_ingested_total{leaf="leaf-a"} 1234`,
		`imps_leaf_batches_total{leaf="leaf-c"} 1`,
		`imps_leaf_ingest_latency_seconds{leaf="leaf-a",quantile="0.5"}`,
		`imps_leaf_ingest_latency_seconds{leaf="leaf-c",quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}

	doc := BuildFleetJSON(st)
	if len(doc.Leaves) != 3 {
		t.Fatalf("fleet doc has %d leaves, want 3", len(doc.Leaves))
	}
	for _, lf := range doc.Leaves {
		want := int64(1234)
		if lf.Name == "old-leaf" {
			want = -1
		}
		if lf.TuplesIngested != want {
			t.Errorf("leaf %s: tuples_ingested %d, want %d", lf.Name, lf.TuplesIngested, want)
		}
		if lf.Name == "old-leaf" && (lf.QueueHighWater != -1 || lf.State != "up") {
			t.Errorf("foreign leaf row %+v: want -1 leaf-reported fields, coordinator state kept", lf)
		}
	}
}

// TestFleetHealthz pins the summary word a probe keys on and the per-leaf
// detail lines.
func TestFleetHealthz(t *testing.T) {
	get := func(st FleetAdminState) string {
		t.Helper()
		srv := httptest.NewServer(NewFleetAdminMux(st))
		defer srv.Close()
		resp, err := srv.Client().Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	up := LeafTelemetry{Name: "a", State: "up", JournalTuples: 10}
	down := LeafTelemetry{Name: "b", State: "down", Downs: 2, PendingTuples: 7}
	if got := get(&fakeFleetState{tel: []LeafTelemetry{up, {Name: "b", State: "up"}}}); !strings.HasPrefix(got, "ok\n") {
		t.Errorf("all-up healthz = %q", got)
	}
	got := get(&fakeFleetState{tel: []LeafTelemetry{up, down}})
	if !strings.HasPrefix(got, "degraded\n") {
		t.Errorf("partial healthz = %q", got)
	}
	if !strings.Contains(got, "leaf b state=down") || !strings.Contains(got, "pending=7") {
		t.Errorf("healthz lacks per-leaf detail: %q", got)
	}
	if got := get(&fakeFleetState{tel: []LeafTelemetry{{Name: "a", State: "down"}}}); !strings.HasPrefix(got, "down\n") {
		t.Errorf("all-down healthz = %q", got)
	}
}

// TestBuildFleetJSONUnreachableLeaf: a leaf with no Stats/Health answer this
// poll keeps its coordinator-side fields and reports -1 sentinels for the
// leaf-reported ones — the dash imptop renders, not a fake zero.
func TestBuildFleetJSONUnreachableLeaf(t *testing.T) {
	st := &fakeFleetState{
		tel: []LeafTelemetry{{Name: "gone", State: "down", Downs: 1, PendingTuples: 42}},
	}
	doc := BuildFleetJSON(st)
	if len(doc.Leaves) != 1 {
		t.Fatalf("leaves %d", len(doc.Leaves))
	}
	lf := doc.Leaves[0]
	if lf.PendingTuples != 42 || lf.Downs != 1 {
		t.Errorf("coordinator-side fields lost: %+v", lf)
	}
	if lf.TuplesIngested != -1 || lf.QueueHighWater != -1 || lf.WorstRelErr != -1 {
		t.Errorf("unreachable leaf not sentineled: %+v", lf)
	}
}
