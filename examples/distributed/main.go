// Distributed runs the sensor-network aggregation setting of §2 over a real
// network, managed by the coordinator subsystem (DESIGN.md §12): eight leaf
// nodes are impserved instances on loopback TCP, fronted by a Coordinator
// that routes every tuple to the one leaf owning its sketch bitmap, journals
// and delivers batches in order, and answers the global implication query
// by folding the leaves' per-bitmap readouts (the Readout RPC). The producer
// talks to the coordinator's wire front-end exactly as it would to a single
// server — it holds no shards, no offsets, no recovery logic.
//
// Constrained nodes also die. One leaf checkpoints its engine to local
// storage as it ingests and is kill()ed mid-stream — connections cut,
// queued batches lost, no final checkpoint. Nobody replays anything by
// hand: the coordinator's prober notices the silence, the Restart hook
// restores the last checkpoint into a fresh server, and the coordinator
// replays its journal from the restored batch boundary before re-admitting
// the leaf. An incarnation fence on every delivery guarantees no batch ever
// reaches the restarted process before that alignment happens. The merged
// root count is bit-identical to an uncrashed shadow fleet fed the same
// stream: the aggregation tree cannot tell there was ever a failure.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"implicate"
	"implicate/internal/gen"
	"implicate/internal/stream"
)

const (
	leaves        = 8
	tuplesPerLeaf = 150_000
	total         = leaves * tuplesPerLeaf

	crashLeaf = 5             // the leaf that dies
	crashAt   = total * 3 / 5 // global tuple index of the crash
	ckptEvery = 20_000        // leaf-applied tuples between checkpoints
	batchSize = 1_000         // tuples per IngestBatch RPC
)

var genConfig = gen.NetTrafficConfig{
	Seed: 17, Sources: 30_000, Destinations: 8_000,
	FlashSources: 2_000, FlashTargets: 1, FlashAfter: 400_000,
}

const sql = `SELECT COUNT(DISTINCT Source) FROM traffic
	WHERE Source IMPLIES Destination
	WITH SUPPORT >= 12, MULTIPLICITY <= 2, CONFIDENCE >= 0.9 TOP 1`

// leafBackend builds merge-compatible sketches: identical options on every
// node, explicit seed, so the coordinator's merge fan-in can fold any
// leaf's state into any other's.
func leafBackend(cond implicate.Conditions) (implicate.Estimator, error) {
	return implicate.NewSketch(cond, implicate.Options{Seed: 99})
}

func newEngine(schema *implicate.Schema) *implicate.Engine {
	eng := implicate.NewEngine(schema)
	if _, err := eng.RegisterSQL(sql, leafBackend); err != nil {
		log.Fatal(err)
	}
	return eng
}

// startLeaf serves a fresh engine on a loopback port; ckptPath enables the
// crash-recovery checkpoint loop.
func startLeaf(schema *implicate.Schema, eng *implicate.Engine, ckptPath string) *implicate.Server {
	srv, err := implicate.Serve(implicate.ServerConfig{
		Addr:            "127.0.0.1:0",
		Schema:          schema,
		Engine:          eng,
		CheckpointPath:  ckptPath,
		CheckpointEvery: ckptEvery,
	})
	if err != nil {
		log.Fatal(err)
	}
	return srv
}

// startFleet boots n leaves and a coordinator over them. Leaf NAMES are the
// stable routing identities — two fleets with the same names route every
// tuple identically regardless of which ports their leaves landed on, which
// is what makes the shadow comparison below meaningful.
func startFleet(schema *implicate.Schema, ckptPath string, restart func(string) (string, error)) ([]*implicate.Server, *implicate.Coordinator) {
	srvs := make([]*implicate.Server, leaves)
	specs := make([]implicate.LeafSpec, leaves)
	for i := range srvs {
		path := ""
		if i == crashLeaf && ckptPath != "" {
			path = ckptPath
		}
		srvs[i] = startLeaf(schema, newEngine(schema), path)
		specs[i] = implicate.LeafSpec{Name: fmt.Sprintf("leaf%d", i), Addr: srvs[i].Addr()}
	}
	co, err := implicate.NewCoordinator(implicate.CoordinatorConfig{
		Schema:      schema,
		Statements:  []string{sql},
		Leaves:      specs,
		FlushTuples: batchSize,
		Restart:     restart,
	})
	if err != nil {
		log.Fatal(err)
	}
	return srvs, co
}

func main() {
	// Global question: how many sources talk to a single destination at
	// least 90% of the time? (Sources are spread across leaves by the route
	// table, so no leaf can answer alone.)
	cond := implicate.Conditions{
		MaxMultiplicity:  2,
		MinSupport:       12,
		TopC:             1,
		MinTopConfidence: 0.9,
	}

	// Ground truth across the whole stream.
	truth, err := implicate.NewExact(cond)
	if err != nil {
		log.Fatal(err)
	}

	g := gen.NewNetTraffic(genConfig)
	schema := gen.NetTrafficSchema()
	src := schema.MustProj("Source")
	dst := schema.MustProj("Destination")

	ckptDir, err := os.MkdirTemp("", "implicate-distributed")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(ckptDir)
	ckptPath := filepath.Join(ckptDir, "leaf5.ckpt")

	// The live fleet. Its Restart hook is the whole operator playbook:
	// restore the checkpoint into a fresh server and report where it
	// listens — journal alignment and replay are the coordinator's job.
	var srvs []*implicate.Server
	recovered := false
	restart := func(name string) (string, error) {
		if name != fmt.Sprintf("leaf%d", crashLeaf) {
			return "", nil // any other leaf is a transient blip; same address
		}
		snap, err := implicate.ReadCheckpoint(ckptPath)
		if err != nil {
			return "", err
		}
		eng, err := implicate.RestoreCheckpoint(snap, schema, nil)
		if err != nil {
			return "", err
		}
		srvs[crashLeaf] = startLeaf(schema, eng, ckptPath)
		recovered = true
		fmt.Printf("  leaf %d: restored checkpoint at offset %d, serving on %s\n",
			crashLeaf, snap.Offset, srvs[crashLeaf].Addr())
		return srvs[crashLeaf].Addr(), nil
	}
	srvs, co := startFleet(schema, ckptPath, restart)

	// The wire front-end: the producer below speaks to the fleet through the
	// same client and the same RPCs it would use against one impserved.
	fe, err := implicate.ServeCoordinator(co, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	cl, err := implicate.Dial(fe.Addr(), schema, implicate.ClientOptions{BusyRetries: -1})
	if err != nil {
		log.Fatal(err)
	}

	// The shadow fleet never crashes. Same leaf names => same routing; it is
	// the yardstick for "recovery loses nothing".
	shadowSrvs, shadow := startFleet(schema, "", nil)

	// One producer, one stream, no shard bookkeeping. The victim dies at
	// crashAt; the producer never notices — batches routed to the dead leaf
	// queue in the coordinator's journal until recovery replays them.
	var batch []stream.Tuple
	var rawBytes int64
	send := func() {
		if len(batch) == 0 {
			return
		}
		if err := cl.IngestBatch(batch); err != nil {
			log.Fatal(err)
		}
		if err := shadow.Ingest(batch); err != nil {
			log.Fatal(err)
		}
		batch = nil // both fleets retain the tuples until journaled
	}
	for i := int64(0); i < total; i++ {
		t, err := g.Next()
		if err != nil {
			log.Fatal(err)
		}
		a, b := src.Key(t), dst.Key(t)
		truth.Add(a, b)
		rawBytes += int64(len(a) + len(b))

		batch = append(batch, append(stream.Tuple(nil), t...))
		if len(batch) >= batchSize {
			send()
		}
		if i == crashAt {
			// The node dies abruptly: connections cut, its queued batches
			// lost, no final checkpoint. Only the periodic checkpoint file
			// survives.
			srvs[crashLeaf].Kill()
			fmt.Printf("  leaf %d: killed at global tuple %d\n", crashLeaf, i)
		}
	}
	send()

	// Flush = the fleet-wide quiesce: every journaled batch delivered AND
	// applied — which forces the victim's recovery to have completed.
	if err := co.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := shadow.Flush(); err != nil {
		log.Fatal(err)
	}
	if !recovered {
		log.Fatal("the crash was never recovered — probe or restart hook misconfigured")
	}

	// The global answer comes off the front-end through the ordinary Query
	// RPC; the coordinator merges leaf snapshots behind it.
	res, err := cl.Query(0)
	if err != nil {
		log.Fatal(err)
	}
	want, err := shadow.Query(0)
	if err != nil {
		log.Fatal(err)
	}
	if math.Float64bits(res.Count) != math.Float64bits(want.Count) || res.Tuples != want.Tuples {
		log.Fatalf("crashed fleet answered %v over %d tuples; uncrashed shadow %v over %d",
			res.Count, res.Tuples, want.Count, want.Tuples)
	}

	// Stronger than count equality: the merged sketch STATE is bit-identical,
	// pulled over the wire from the recovered fleet vs in-process from the
	// shadow.
	snap, err := cl.Snapshot(0)
	if err != nil {
		log.Fatal(err)
	}
	shadowSnap, err := shadow.Snapshot(0)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(snap.Sketch, shadowSnap.Sketch) {
		log.Fatal("merged fleet state diverged from the uncrashed shadow")
	}

	// Membership view: the victim's epoch counts its completed recovery.
	status, err := cl.Cluster()
	if err != nil {
		log.Fatal(err)
	}

	cl.Close()
	fe.Close()
	co.Close()
	shadow.Close()
	for _, s := range append(srvs, shadowSrvs...) {
		s.Close()
	}

	rootSketch, err := implicate.UnmarshalSketch(snap.Sketch)
	if err != nil {
		log.Fatal(err)
	}
	est := rootSketch.ImplicationCount()
	lo, hi := rootSketch.ImplicationCountInterval(2)
	exact := truth.ImplicationCount()
	fmt.Printf("distributed: %d leaf servers, coordinator-routed over loopback TCP\n", leaves)
	fmt.Printf("  fleet over %d bitmaps:\n", status.VirtualPartitions)
	for i, lf := range status.Leaves {
		fmt.Printf("    leaf%d %s: epoch=%d parts=%d journaled=%d\n", i, lf.Addr, lf.Epoch, lf.Parts, lf.Journaled)
	}
	fmt.Printf("  root count vs uncrashed shadow fleet: bit-identical (%.0f over %d tuples)\n", res.Count, res.Tuples)
	fmt.Printf("  merged sketch state vs shadow:        bit-identical (%d bytes)\n", len(snap.Sketch))
	fmt.Printf("  exact single-destination sources: %.0f\n", exact)
	fmt.Printf("  merged-sketch estimate:           %.0f  (95%% interval [%.0f, %.0f])\n", est, lo, hi)
	fmt.Printf("  relative error:                   %.1f%%\n", 100*abs(est-exact)/exact)
	fmt.Printf("  state pulled per fleet snapshot:  %d bytes (raw stream is %d — %.0fx more)\n",
		len(snap.Sketch), rawBytes, float64(rawBytes)/float64(len(snap.Sketch)))
	fmt.Printf("  root memory:                      %d counter entries\n", rootSketch.MemEntries())
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
