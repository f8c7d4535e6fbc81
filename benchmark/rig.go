package main

import (
	"encoding"
	"fmt"
	"runtime"
	"time"

	"implicate/internal/client"
	"implicate/internal/coord"
	"implicate/internal/core"
	"implicate/internal/imps"
	"implicate/internal/metrics"
	"implicate/internal/query"
	"implicate/internal/server"
)

// Fixed shape of every workload. Sizes are constants on purpose: there are
// no environment variables and no hidden knobs.
const (
	maxProducers = 4    // P = min(nproc, 4) pipelined ingest connections
	window       = 16   // batches in flight per connection
	sketchShards = 4    // shards of the single-node "sharded" backend
	fleetLeaves  = 3    // leaves behind the coordinator in fleet
	segments     = 5    // equal timed segments; rates report the median
	maxRelErr    = 0.30 // correctness bound on the verified estimate
)

type kind int

const (
	kindLib kind = iota
	kindServer
	kindFleet
)

// spec describes one workload.
type spec struct {
	name  string
	kind  kind
	batch int // tuples per ingest batch
	why   string
}

var specs = []spec{
	{"lib_sketch", kindLib, 1000, "single-threaded library baseline of the same job: projection, hashing, query engine and sketch do all the work, no wire"},
	{"serve_tcp", kindServer, 1000, "per-tuple wire cost: decode, plan, dispatch and apply dominate, per-frame cost is amortised 1000x"},
	{"serve_small", kindServer, 32, "per-frame cost: framing, connection read, ack write and pipeline hand-off dominate, apply is negligible"},
	{"fleet", kindFleet, 1000, "coordinator route/journal/deliver on ingest and snapshot+unmarshal+merge on query: reads beside writes"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// producerCount is the number of ingest connections: nproc, capped.
func producerCount() int { return min(runtime.NumCPU(), maxProducers) }

// rig is one booted system under test plus the connections into it.
type rig struct {
	sp spec
	in *inputs
	sz sizes

	eng     *query.Engine    // lib_sketch's engine, or the single server's
	srv     *server.Server   // serve_tcp, serve_small
	leaves  []*server.Server // fleet
	co      *coord.Coordinator
	fe      *coord.Frontend
	clients []*client.Client // one single-connection client per producer

	order  []encBatch // the pass in verification order; lib_sketch cycles through it
	v      verified   // what the verification pass established
	ops    int64      // ingest batches and queries attempted so far
	sent   int64      // tuples handed to the system so far
	cursor []int      // each producer's position in its batch cycle
	closed bool
}

// verified is what the verification pass establishes.
type verified struct {
	Estimate   float64
	RelErr     float64
	MemEntries int
	StateBytes int
}

func (r *rig) backend(cond imps.Conditions) (imps.Estimator, error) {
	opts := core.Options{Seed: sketchSeed}
	if r.sp.kind == kindFleet {
		// "nips" is the only merge-compatible kind.
		return core.NewSketch(cond, opts)
	}
	return core.NewShardedSketch(cond, opts, sketchShards)
}

// boot starts the system under test and dials the producers' connections.
func boot(sp spec, in *inputs, sz sizes) (r *rig, err error) {
	procs := producerCount()
	r = &rig{sp: sp, in: in, sz: sz, order: in.passOrder(), cursor: make([]int, len(in.producers))}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	listen := func(workers int) (*server.Server, error) {
		eng := query.NewEngine(in.schema)
		if _, err := eng.RegisterSQL(in.sql, r.backend); err != nil {
			return nil, err
		}
		return server.Listen(server.Config{
			Addr:       "127.0.0.1:0",
			Schema:     in.schema,
			Engine:     eng,
			QueueDepth: procs * window,
			Workers:    workers,
			// Blocking back-pressure: a busy-refused batch would be re-sent
			// behind its pipelined successors and reorder the stream.
			BlockOnFull: true,
		})
	}
	addr := ""
	switch sp.kind {
	case kindLib:
		r.eng = query.NewEngine(in.schema)
		if _, err = r.eng.RegisterSQL(in.sql, r.backend); err != nil {
			return r, err
		}
		return r, nil
	case kindServer:
		if r.srv, err = listen(procs); err != nil {
			return r, err
		}
		r.eng = r.srv.Engine()
		addr = r.srv.Addr()
	case kindFleet:
		var leafSpecs []coord.LeafSpec
		for i := 0; i < fleetLeaves; i++ {
			srv, err := listen(1)
			if err != nil {
				return r, err
			}
			r.leaves = append(r.leaves, srv)
			leafSpecs = append(leafSpecs, coord.LeafSpec{Name: fmt.Sprintf("leaf%d", i), Addr: srv.Addr()})
		}
		r.co, err = coord.New(coord.Config{
			Schema:      in.schema,
			Statements:  []string{in.sql},
			Leaves:      leafSpecs,
			FlushTuples: sp.batch,
		})
		if err != nil {
			return r, err
		}
		if r.fe, err = coord.Serve(r.co, "127.0.0.1:0"); err != nil {
			return r, err
		}
		addr = r.fe.Addr()
	}
	for range in.producers {
		cl, err := client.Dial(addr, in.schema, client.Options{Conns: 1})
		if err != nil {
			return r, err
		}
		r.clients = append(r.clients, cl)
	}
	return r, nil
}

// close tears the system down. Safe on a partially booted rig, and a
// second call is a no-op.
func (r *rig) close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, cl := range r.clients {
		keep(cl.Close())
	}
	if r.fe != nil {
		keep(r.fe.Close())
	}
	if r.co != nil {
		keep(r.co.Close())
	}
	if r.srv != nil {
		keep(r.srv.Close())
	}
	for _, srv := range r.leaves {
		keep(srv.Close())
	}
	return first
}

// servers lists the leaf-level servers holding estimator state.
func (r *rig) servers() []*server.Server {
	if r.srv != nil {
		return []*server.Server{r.srv}
	}
	return r.leaves
}

// drain blocks until every tuple sent so far is applied, so that a deep
// queue cannot pass for throughput.
func (r *rig) drain() error {
	switch r.sp.kind {
	case kindLib:
		return nil
	case kindFleet:
		return r.co.Flush()
	}
	deadline := time.Now().Add(30 * time.Second)
	for r.eng.Tuples() < r.sent {
		if time.Now().After(deadline) {
			return fmt.Errorf("drain: %d of %d tuples applied after 30s", r.eng.Tuples(), r.sent)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// estimate reads the statement's current answer and the applied-tuple total
// the way a user of the workload would.
func (r *rig) estimate() (count float64, tuples int64, err error) {
	if r.sp.kind == kindLib {
		return r.eng.Statements()[0].Count(), r.eng.Tuples(), nil
	}
	q, err := r.clients[0].Query(0)
	return q.Count, q.Tuples, err
}

// footprint reads the estimator footprint through public accessors: live
// counter entries and the marshalled snapshot length, summed over leaves.
func (r *rig) footprint() (memEntries, stateBytes int, err error) {
	engines := []*query.Engine{r.eng}
	if r.sp.kind == kindFleet {
		engines = engines[:0]
		for _, srv := range r.leaves {
			engines = append(engines, srv.Engine())
		}
	}
	for _, eng := range engines {
		st := eng.Statements()[0]
		memEntries += st.Health().MemEntries
		m, ok := st.Estimator().(encoding.BinaryMarshaler)
		if !ok {
			return 0, 0, fmt.Errorf("estimator %T does not marshal", st.Estimator())
		}
		var blob []byte
		st.Exclusive(func() { blob, err = m.MarshalBinary() })
		if err != nil {
			return 0, 0, err
		}
		stateBytes += len(blob)
	}
	return memEntries, stateBytes, nil
}

// reference runs the pass through an in-process plain Sketch in the same
// order; a same-seed ShardedSketch, fed locally or over the wire, must give
// exactly this answer.
func (r *rig) reference(order []encBatch) (float64, error) {
	eng := query.NewEngine(r.in.schema)
	st, err := eng.RegisterSQL(r.in.sql, func(cond imps.Conditions) (imps.Estimator, error) {
		return core.NewSketch(cond, core.Options{Seed: sketchSeed})
	})
	if err != nil {
		return 0, err
	}
	for _, b := range order {
		eng.ProcessBatch(b.tuples)
	}
	return st.Count(), nil
}

// verify sends the whole pass once, in a fixed order over one connection
// (so the resulting sketch is deterministic), drains, and checks the
// outputs.
func (r *rig) verify() error {
	order := r.order
	if r.sp.kind == kindLib {
		for _, b := range order {
			r.eng.ProcessBatch(b.tuples)
			r.sent += int64(len(b.tuples))
		}
	} else {
		pend := make([]*client.PendingIngest, 0, window)
		for _, b := range order {
			if len(pend) == window {
				if err := pend[0].Wait(); err != nil {
					return err
				}
				pend = append(pend[:0], pend[1:]...)
			}
			pi, err := r.clients[0].IngestAsync(b.payload, int64(len(b.tuples)))
			if err != nil {
				return err
			}
			pend = append(pend, pi)
			r.sent += int64(len(b.tuples))
		}
		for _, pi := range pend {
			if err := pi.Wait(); err != nil {
				return err
			}
		}
	}
	r.ops += int64(len(order)) + 1
	if err := r.drain(); err != nil {
		return err
	}
	est, applied, err := r.estimate()
	if err != nil {
		return err
	}
	if applied != r.sent {
		return fmt.Errorf("verify: %d tuples applied, %d sent", applied, r.sent)
	}
	r.v.Estimate = est
	r.v.RelErr = metrics.RelErr(r.in.exact, est)
	if r.v.RelErr > maxRelErr {
		return fmt.Errorf("verify: estimate %.1f vs exact %.0f: relative error %.3f exceeds %.2f", est, r.in.exact, r.v.RelErr, maxRelErr)
	}
	if r.sp.kind != kindFleet {
		// Fleet leaves each see a partition of the stream, so the merged
		// sketch is not the single-sketch state; everything else must be.
		ref, err := r.reference(order)
		if err != nil {
			return err
		}
		if est != ref {
			return fmt.Errorf("verify: estimate %v differs from the in-process library reference %v", est, ref)
		}
	}
	r.v.MemEntries, r.v.StateBytes, err = r.footprint()
	return err
}
