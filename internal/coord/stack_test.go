package coord

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"implicate/internal/client"
	"implicate/internal/core"
	"implicate/internal/gen"
	"implicate/internal/proto"
	"implicate/internal/stream"
)

// TestThreeTierFleet is the paper's §2 tree one level deeper, all of it
// through the wire: a root coordinator over two child coordinators'
// front-ends, each child over two leaves. The root reads a child exactly as
// it reads a leaf — Readout for a query, Snapshot for the merged state — so
// every read mode the root answers, its readout, and its merged snapshot
// are one sketch's bit for bit. Every node runs the harness's batch size,
// so the root's Flush drains through its children.
func TestThreeTierFleet(t *testing.T) { threeTierFleet(t, "") }

// TestThreeTierKillAndRecover is TestThreeTierFleet with a grandchild killed
// two thirds of the way into the stream, once it has checkpointed: its child
// coordinator restarts it from that checkpoint and replays its journal, and
// every read at the root is still one sketch's, bit for bit.
func TestThreeTierKillAndRecover(t *testing.T) { threeTierFleet(t, "left0") }

// threeTierFleet runs the 3-tier tree over one stream, killing the leaf
// named victim (none when empty) mid-stream, and checks the root's reads.
func threeTierFleet(t *testing.T, victim string) {
	d := gen.MustDatasetOne(gen.DatasetOneConfig{CardA: 200, Count: 80, C: 2, Support: 20, Seed: 5})
	c := d.Conditions
	with := fmt.Sprintf("WITH SUPPORT >= %d, MULTIPLICITY <= %d, CONFIDENCE >= %g TOP %d", c.MinSupport, c.MaxMultiplicity, c.MinTopConfidence, c.TopC)
	fl := newFleet(t, fleetSchema(t))
	fl.sql = []string{
		"SELECT COUNT(DISTINCT A) FROM t WHERE A IMPLIES B " + with,
		"SELECT COUNT(DISTINCT A) FROM t WHERE A NOT IMPLIES B " + with,
		"SELECT AVG(MULTIPLICITY(A)) FROM t WHERE A IMPLIES B " + with,
		"SELECT COUNT(DISTINCT A) FROM t",
	}
	t.Cleanup(fl.closeAll)
	var children []LeafSpec
	var left *Coordinator
	for _, name := range []string{"left", "right"} {
		child := startCoordinator(t, fl, 2, name)
		if name == "left" {
			left = child
		}
		fe, err := Serve(child, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fe.Close() })
		children = append(children, LeafSpec{Name: name, Addr: fe.Addr()})
	}
	root, err := New(Config{
		Schema:        fl.schema,
		Statements:    fl.sql,
		Leaves:        children,
		FlushTuples:   100,
		ClientOptions: client.Options{Conns: 1},
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	fe, err := Serve(root, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })
	cl, err := client.Dial(fe.Addr(), fl.schema, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	boot, err := cl.Boot()
	if err != nil {
		t.Fatal(err)
	}

	one, err := fl.engine()
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]stream.Tuple, len(d.Pairs))
	for i, p := range d.Pairs {
		tuples[i] = stream.Tuple{fmt.Sprintf("a%d", p.A), fmt.Sprintf("b%d", p.B)}
	}
	const chunk = 500
	killAt := 2 * len(tuples) / 3
	for off := 0; off < len(tuples); off += chunk {
		batch := tuples[off:min(off+chunk, len(tuples))]
		if err := cl.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		one.ProcessBatch(batch)
		if victim != "" && off <= killAt && killAt < off+len(batch) {
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				if _, err := os.Stat(fl.ckptPath(victim)); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s never checkpointed", victim)
				}
			}
			fl.kill(victim)
		}
	}
	if err := root.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := left.Status().Leaves[0]; victim != "" && (st.State != proto.LeafUp || st.Epoch < 1) {
		t.Errorf("killed grandchild status = state %d epoch %d, want up with epoch >= 1", st.State, st.Epoch)
	}

	for stmt, st := range one.Statements() {
		ref := st.Estimator().(*core.Sketch)
		q, err := cl.Query(stmt)
		if err != nil {
			t.Fatalf("stmt %d (%v) query: %v", stmt, st.Query().Mode, err)
		}
		if want := st.Count(); math.Float64bits(q.Count) != math.Float64bits(want) || q.Tuples != one.Tuples() {
			t.Errorf("stmt %d (%v): root %v over %d tuples, one sketch %v over %d", stmt, st.Query().Mode, q.Count, q.Tuples, want, one.Tuples())
		}
		if st.Count() == 0 {
			t.Errorf("stmt %d (%v): one sketch reads 0; the stream must exercise every mode", stmt, st.Query().Mode)
		}
		ro, err := cl.ReadoutFenced(stmt, boot)
		if err != nil {
			t.Fatalf("stmt %d readout: %v", stmt, err)
		}
		if want := ref.AppendReadout(nil); !bytes.Equal(ro.Records, want) || ro.Bitmaps != uint32(ref.Options().Bitmaps) || ro.Tuples != one.Tuples() {
			t.Errorf("stmt %d: root readout of %d bitmaps, %d record bytes over %d tuples differs from one sketch's (%d bytes)",
				stmt, ro.Bitmaps, len(ro.Records), ro.Tuples, len(want))
		}
		if st.Shared() {
			continue // snapshots are pulled from the estimator's owner
		}
		snap, err := cl.Snapshot(stmt)
		if err != nil {
			t.Fatalf("stmt %d snapshot: %v", stmt, err)
		}
		merged, err := core.UnmarshalSketch(snap.Sketch)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sketchState(merged), sketchState(ref); got != want || snap.Tuples != one.Tuples() {
			t.Errorf("stmt %d: root snapshot over %d tuples differs from one sketch's\n got:\n%.2000s\nwant:\n%.2000s", stmt, snap.Tuples, got, want)
		}
	}
}

// roleRefusals lists, for each role, the request types it refuses and why.
// A role answers every other request type; a new type fails
// TestRoleMatrix until it has a well-formed frame there and each role has
// either answered it or been given a refusal here.
var roleRefusals = map[string]map[proto.Type]string{
	"leaf": {
		proto.TCluster: "a leaf has no membership view to report",
	},
	"coordinator": {
		proto.TMerge: "the fleet's state lives in its leaves, so a pushed sketch has nowhere to go; pull with Snapshot instead",
	},
}

// TestRoleMatrix sends one well-formed frame of every request type proto
// declares to a leaf server and to a coordinator front-end, and checks each
// role answers it or refuses it as roleRefusals says. Every undeclared
// request number below TOK — the reserved 0x07 and 0x0b among them — must get a
// TError from each role, and the connection must then still answer a
// well-formed TQuery.
func TestRoleMatrix(t *testing.T) {
	schema := fleetSchema(t)
	fl := newFleet(t, schema)
	t.Cleanup(fl.closeAll)
	fe, err := Serve(startCoordinator(t, fl, 2, "leaf"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })
	roles := map[string]string{"leaf": fl.start("solo"), "coordinator": fe.Addr()}

	batch, err := client.EncodeBatch(schema, fleetTuples(10))
	if err != nil {
		t.Fatal(err)
	}
	sketch, err := routeSketch(64).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	stmt0 := proto.StmtReq{Stmt: 0}.Encode()
	requests := map[proto.Type][]byte{
		proto.TIngest:   batch,
		proto.TQuery:    stmt0,
		proto.TMerge:    proto.MergeReq{Stmt: 0, Sketch: sketch}.Encode(),
		proto.TStats:    nil,
		proto.THealth:   nil,
		proto.TTrace:    nil,
		proto.TSnapshot: stmt0,
		proto.TCluster:  nil,
		proto.TBoot:     nil,
		proto.TReadout:  stmt0,
	}
	for _, reserved := range []proto.Type{0x07, 0x0b} {
		if !strings.HasPrefix(reserved.String(), "Type(") {
			t.Errorf("reserved request number %#02x is declared as %s", uint8(reserved), reserved)
		}
	}
	for i := range int(proto.TOK) {
		typ := proto.Type(i)
		if strings.HasPrefix(typ.String(), "Type(") {
			for role, addr := range roles {
				replies := exchange(t, addr,
					proto.Frame{Type: typ, ID: uint64(i), Payload: stmt0},
					proto.Frame{Type: proto.TQuery, ID: uint64(i) + 0x100, Payload: stmt0})
				if replies[0].Type != proto.TError {
					t.Errorf("%s answers undeclared %s with %s, want %s", role, typ, replies[0].Type, proto.TError)
				}
				if replies[1].Type != proto.TResult {
					t.Errorf("%s answers a query after undeclared %s with %s, want %s", role, typ, replies[1].Type, proto.TResult)
				}
			}
			continue
		}
		payload, ok := requests[typ]
		if !ok {
			t.Errorf("request type %s has no well-formed frame in this test: decide what each role does with it", typ)
			continue
		}
		for role, addr := range roles {
			reply := exchange(t, addr, proto.Frame{Type: typ, ID: uint64(i), Payload: payload})[0]
			reason, refused := roleRefusals[role][typ]
			switch {
			case refused && reply.Type != proto.TError:
				t.Errorf("%s answers %s with %s; its refusal (%s) is stale", role, typ, reply.Type, reason)
			case !refused && reply.Type != proto.TOK && reply.Type != proto.TResult:
				msg, _ := proto.DecodeError(reply.Payload)
				t.Errorf("%s does not answer %s: %s reply %q", role, typ, reply.Type, msg)
			}
		}
	}
}

// exchange sends each frame in turn on one fresh connection to addr, waits
// for its reply before sending the next, and returns the replies.
func exchange(t *testing.T, addr string, frames ...proto.Frame) []proto.Frame {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	fr := proto.NewFrameReader(c)
	replies := make([]proto.Frame, len(frames))
	for i, f := range frames {
		if err := proto.WriteFrame(c, f); err != nil {
			t.Fatal(err)
		}
		reply, err := fr.Next()
		if err != nil {
			t.Fatalf("%s: %v", f.Type, err)
		}
		if reply.ID != f.ID {
			t.Fatalf("%s: reply id %d, want %d", f.Type, reply.ID, f.ID)
		}
		reply.Payload = append([]byte(nil), reply.Payload...)
		replies[i] = reply
	}
	return replies
}
