// Multi-tenant serving tests: authenticated sessions, quota admission with
// no partial state, per-tenant checkpoint lineage across a crash, the
// noisy-neighbor isolation bound, and the client's redial handshake chain.
package server

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"implicate/internal/client"
	"implicate/internal/proto"
	"implicate/internal/stream"
	"implicate/internal/telemetry"
	"implicate/internal/tenant"
)

var testKey = []byte("test-signing-key")

func tenantCfg(name string) tenant.Config {
	return tenant.Config{Name: name, Queries: []string{testSQL}, Backend: "exact"}
}

// multiTenantConfig is a server with the given named tenants plus the
// usual implicit default.
func multiTenantConfig(t *testing.T, tenants ...tenant.Config) Config {
	t.Helper()
	schema := testSchema(t)
	return Config{
		Schema:   schema,
		Engine:   testEngine(t, schema, exactBackend()),
		Workers:  2,
		TokenKey: testKey,
		Tenants:  tenants,
		Backends: tenant.Backends{"exact": exactBackend()},
	}
}

func dialTenant(t *testing.T, s *Server, name string, opt client.Options) *client.Client {
	t.Helper()
	cl, err := client.DialTenant(s.Addr(), testSchema(t), name, tenant.Token(testKey, name), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// tenantTuples builds a per-tenant deterministic stream: distinct value
// spaces per tenant so cross-tenant leakage would change counts.
func tenantTuples(name string, n, offset int) []stream.Tuple {
	ts := make([]stream.Tuple, n)
	for i := range ts {
		k := offset + i
		ts[i] = stream.Tuple{fmt.Sprintf("%s-s%d", name, k%13), fmt.Sprintf("%s-d%d", name, k%13%5)}
	}
	return ts
}

// withAddr fills the loopback ephemeral address like startServer does, for
// tests that manage the server lifecycle themselves.
func withAddr(cfg Config) Config {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	return cfg
}

// marshalTenant marshals a tenant's engine, for bit-identity comparisons
// after the server stopped.
func marshalTenant(t *testing.T, s *Server, name string) []byte {
	t.Helper()
	eng, ok := s.TenantEngine(name)
	if !ok {
		t.Fatalf("tenant %s missing", name)
	}
	blob, err := eng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestTenantAuthAndIsolation pins three sessions to three namespaces and
// checks each engine saw only its own stream — and that a session that
// never authenticates still serves the default tenant, the PR-7 client's
// whole experience of a multi-tenant server.
func TestTenantAuthAndIsolation(t *testing.T) {
	s := startServer(t, multiTenantConfig(t, tenantCfg("acme"), tenantCfg("globex")))

	acme := dialTenant(t, s, "acme", client.Options{Conns: 1})
	globex := dialTenant(t, s, "globex", client.Options{Conns: 1})
	def := dialClient(t, s, testSchema(t), client.Options{Conns: 1}) // no TAuth at all

	if err := acme.IngestBatch(tenantTuples("acme", 130, 0)); err != nil {
		t.Fatal(err)
	}
	if err := globex.IngestBatch(tenantTuples("globex", 70, 0)); err != nil {
		t.Fatal(err)
	}
	if err := def.IngestBatch(tenantTuples("def", 40, 0)); err != nil {
		t.Fatal(err)
	}
	waitTuples(t, acme, 130)
	waitTuples(t, globex, 70)
	waitTuples(t, def, 40)

	// Stats carries per-tenant rows only on multi-tenant servers; the
	// default tenant appears alongside the named ones.
	sn, err := def.Stats()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]telemetry.TenantStats{}
	for _, ts := range sn.Tenants {
		byName[ts.Name] = ts
	}
	if len(byName) != 3 {
		t.Fatalf("snapshot has tenants %v, want acme, globex, default", byName)
	}
	if byName["acme"].Tuples != 130 || byName["globex"].Tuples != 70 || byName[tenant.DefaultName].Tuples != 40 {
		t.Fatalf("per-tenant tuple counts %v", byName)
	}

	// A bad token and an unknown tenant must both refuse the dial.
	if _, err := client.DialTenant(s.Addr(), testSchema(t), "acme", "wrong", client.Options{Conns: 1}); err == nil {
		t.Fatal("bad token authenticated")
	}
	if _, err := client.DialTenant(s.Addr(), testSchema(t), "ghost", tenant.Token(testKey, "ghost"), client.Options{Conns: 1}); err == nil {
		t.Fatal("unknown tenant authenticated")
	}
}

// TestTenantSecondAuthRefused speaks raw frames: a second TAuth on a
// pinned session is an error, so one connection's pipelined batches can
// never straddle two engines.
func TestTenantSecondAuthRefused(t *testing.T) {
	s := startServer(t, multiTenantConfig(t, tenantCfg("acme"), tenantCfg("globex")))
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	fr := proto.NewFrameReader(nc)
	auth := func(id uint64, name string) proto.Frame {
		t.Helper()
		err := proto.WriteFrame(nc, proto.Frame{
			Type: proto.TAuth, ID: id,
			Payload: proto.AuthReq{Tenant: name, Token: tenant.Token(testKey, name)}.Encode(),
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if f := auth(1, "acme"); f.Type != proto.TOK {
		t.Fatalf("first auth replied %s", f.Type)
	}
	f := auth(2, "globex")
	if f.Type != proto.TError {
		t.Fatalf("second auth replied %s, want error", f.Type)
	}
	msg, err := proto.DecodeError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "already pinned") {
		t.Fatalf("second auth error %q", msg)
	}
}

// TestTenantQuotaRefusalNoPartialState drives a tenant into its ingest
// rate quota and checks the refusal reached the client as ErrQuota — and
// that the refused batch left the engine byte-identical to a server that
// never saw it.
func TestTenantQuotaRefusalNoPartialState(t *testing.T) {
	limited := tenantCfg("acme")
	limited.Rate = 1 // refills far too slowly for a second 100-tuple batch
	limited.Burst = 100

	run := func(overflow bool) []byte {
		s, err := Listen(withAddr(multiTenantConfig(t, limited)))
		if err != nil {
			t.Fatal(err)
		}
		cl := dialTenant(t, s, "acme", client.Options{Conns: 1})
		if err := cl.IngestBatch(tenantTuples("acme", 100, 0)); err != nil {
			t.Fatal(err)
		}
		waitTuples(t, cl, 100)
		if overflow {
			err := cl.IngestBatch(tenantTuples("acme", 100, 100))
			if !errors.Is(err, client.ErrQuota) {
				t.Fatalf("over-quota ingest returned %v, want ErrQuota", err)
			}
			var q *client.QuotaRefusal
			if !errors.As(err, &q) || q.RetryAfter <= 0 {
				t.Fatalf("rate refusal %v carries no retry hint", err)
			}
			// The refusal is pre-plan, pre-enqueue: the applied count holds.
			if res := waitTuples(t, cl, 100); res.Tuples != 100 {
				t.Fatalf("refused batch advanced the engine to %d", res.Tuples)
			}
		}
		cl.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return marshalTenant(t, s, "acme")
	}

	clean := run(false)
	refused := run(true)
	if string(clean) != string(refused) {
		t.Fatal("quota-refused batch left partial engine state")
	}
}

// TestTenantCheckpointKillRecover crashes a two-tenant server mid-stream,
// restarts it from <dir>/<tenant>.ckpt, replays each tenant's suffix from
// its checkpoint offset, and checks both engines end bit-identical to
// dedicated servers that never crashed.
func TestTenantCheckpointKillRecover(t *testing.T) {
	dir := t.TempDir()
	const batch, total = 50, 500
	batchesFor := func(name string) [][]stream.Tuple {
		var bs [][]stream.Tuple
		for off := 0; off < total; off += batch {
			bs = append(bs, tenantTuples(name, batch, off))
		}
		return bs
	}

	cfg := multiTenantConfig(t, tenantCfg("acme"), tenantCfg("globex"))
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 120
	s, err := Listen(withAddr(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"acme", "globex"} {
		cl := dialTenant(t, s, name, client.Options{Conns: 1})
		for _, b := range batchesFor(name) {
			if err := cl.IngestBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		waitTuples(t, cl, total)
		cl.Close()
	}
	s.Kill() // no final checkpoint: only the periodic lineage survives

	re, err := Listen(withAddr(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"acme", "globex"} {
		cl := dialTenant(t, re, name, client.Options{Conns: 1})
		res, err := cl.Query(0)
		if err != nil {
			t.Fatal(err)
		}
		off := int(res.Tuples)
		if off == 0 || off >= total || off%batch != 0 {
			t.Fatalf("tenant %s resumed at offset %d, want a mid-stream batch boundary", name, off)
		}
		// Replay the suffix from the checkpoint offset — the producer's
		// recovery contract, per tenant.
		for _, b := range batchesFor(name)[off/batch:] {
			if err := cl.IngestBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		waitTuples(t, cl, total)
		cl.Close()
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Dedicated single-tenant comparison runs: same stream, no crash, a
	// fresh checkpoint lineage, one tenant each.
	for _, name := range []string{"acme", "globex"} {
		solo, err := Listen(withAddr(multiTenantConfig(t, tenantCfg(name))))
		if err != nil {
			t.Fatal(err)
		}
		cl := dialTenant(t, solo, name, client.Options{Conns: 1})
		for _, b := range batchesFor(name) {
			if err := cl.IngestBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		waitTuples(t, cl, total)
		cl.Close()
		if err := solo.Close(); err != nil {
			t.Fatal(err)
		}
		if want, got := marshalTenant(t, solo, name), marshalTenant(t, re, name); string(want) != string(got) {
			t.Fatalf("tenant %s state after kill-and-recover differs from a dedicated run", name)
		}
	}
}

// TestTenantNoisyNeighbor is the isolation acceptance bound: with tenant
// acme pinned at its quota, the server's own counters show every one of its
// batches refused at admission and none admitted, tenant globex admits all
// of its batches with no refusal of either kind, and globex's engine ends
// bit-identical to a dedicated server fed the same stream. The counters
// replace a wall-clock throughput ratio, which CPU contention from
// neighbouring tests pushed under its bound.
func TestTenantNoisyNeighbor(t *testing.T) {
	noisy := tenantCfg("acme")
	noisy.Rate = 1    // one tuple per second: effectively everything refuses
	noisy.Burst = 1   // no opening burst window
	noisy.Weight = 10 // even a 10× dispatch weight must not help a refused tenant

	const batches, perBatch = 120, 256
	victim := func(s *Server) {
		cl := dialTenant(t, s, "globex", client.Options{Conns: 1})
		defer cl.Close()
		for i := 0; i < batches; i++ {
			if err := cl.IngestBatch(tenantTuples("globex", perBatch, i*perBatch)); err != nil {
				t.Fatal(err)
			}
		}
		waitTuples(t, cl, batches*perBatch)
	}

	soloSrv, err := Listen(withAddr(multiTenantConfig(t, tenantCfg("globex"))))
	if err != nil {
		t.Fatal(err)
	}
	victim(soloSrv)
	if err := soloSrv.Close(); err != nil {
		t.Fatal(err)
	}

	shared, err := Listen(withAddr(multiTenantConfig(t, noisy, tenantCfg("globex"))))
	if err != nil {
		t.Fatal(err)
	}
	flood := dialTenant(t, shared, "acme", client.Options{Conns: 1})
	payload, err := client.EncodeBatch(testSchema(t), tenantTuples("acme", perBatch, 0))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	floodDone := make(chan struct{})
	var sends int64 // the flood's sends, every one answered; read after floodDone
	go func() {
		defer close(floodDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Saturating the quota: every send must come back TQuota. The
			// pacing still offers ~256k tuples/s against a 1 tuple/s quota
			// while modeling a producer that does not spin the CPU it was
			// just refused on.
			err := flood.IngestEncoded(payload, perBatch)
			sends++
			if !errors.Is(err, client.ErrQuota) {
				t.Errorf("noisy tenant's batch answered %v past a 1 tuple/s quota, want ErrQuota", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	victim(shared)
	close(stop)
	<-floodDone
	stats := map[string]telemetry.TenantStats{}
	for _, ts := range shared.TenantStats() {
		stats[ts.Name] = ts
	}
	if err := shared.Close(); err != nil {
		t.Fatal(err)
	}

	if acme := stats["acme"]; acme.Batches != 0 || acme.QuotaRefusals != sends {
		t.Errorf("noisy tenant admitted %d batches and was refused %d, want 0 admitted and all %d sends refused",
			acme.Batches, acme.QuotaRefusals, sends)
	}
	if globex := stats["globex"]; globex.Batches != batches || globex.Rejected != 0 || globex.QuotaRefusals != 0 {
		t.Errorf("victim admitted %d batches with %d busy and %d quota refusals, want %d admitted and none refused",
			globex.Batches, globex.Rejected, globex.QuotaRefusals, batches)
	}

	// The victim's engine must not have absorbed a single noisy tuple, and
	// the noisy tenant's engine must have applied nothing past its quota.
	if solo, sh := marshalTenant(t, soloSrv, "globex"), marshalTenant(t, shared, "globex"); string(solo) != string(sh) {
		t.Fatal("victim engine state differs from its dedicated-server run")
	}
	if eng, ok := shared.TenantEngine("acme"); ok && eng.Tuples() != 0 {
		t.Fatalf("noisy tenant applied %d tuples past its quota", eng.Tuples())
	}
}

// TestClientRedialHandshakeChain kills the server under an authenticated
// pool and restarts it on the same address: the pool's transparent redial
// must re-run the full boot+auth chain, so post-redial batches still land
// on the pinned tenant and never leak into the default engine.
func TestClientRedialHandshakeChain(t *testing.T) {
	s1, err := Listen(withAddr(multiTenantConfig(t, tenantCfg("acme"))))
	if err != nil {
		t.Fatal(err)
	}
	addr := s1.Addr()

	cl, err := client.DialTenant(addr, testSchema(t), "acme", tenant.Token(testKey, "acme"), client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.IngestBatch(tenantTuples("acme", 30, 0)); err != nil {
		t.Fatal(err)
	}
	waitTuples(t, cl, 30)

	s1.Kill()
	cfg2 := multiTenantConfig(t, tenantCfg("acme"))
	cfg2.Addr = addr
	var s2 *Server
	deadline := time.Now().Add(5 * time.Second)
	for {
		s2, err = Listen(cfg2)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The pooled connection is dead; Query's idempotent retry forces the
	// redial (and with it the handshake chain) against the new server.
	var res proto.QueryResult
	deadline = time.Now().Add(5 * time.Second)
	for {
		res, err = cl.Query(0)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never recovered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if res.Tuples != 0 {
		t.Fatalf("fresh server reports %d tuples", res.Tuples)
	}
	// Mid-stream ingest on the redialed connection: authenticated, or the
	// batch would land on the default tenant.
	if err := cl.IngestBatch(tenantTuples("acme", 25, 0)); err != nil {
		t.Fatal(err)
	}
	waitTuples(t, cl, 25)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if eng, _ := s2.TenantEngine("acme"); eng == nil || eng.Tuples() != 25 {
		t.Fatal("tenant engine did not apply the post-redial batch")
	}
	if n := s2.Engine().Tuples(); n != 0 {
		t.Fatalf("default engine absorbed %d tuples after redial — auth chain did not re-run", n)
	}
}
