package main

import (
	"fmt"
	"io"
	"runtime/metrics"

	"implicate/internal/client"
	"implicate/internal/core"
	"implicate/internal/imps"
	"implicate/internal/pipeline"
	"implicate/internal/proto"
	"implicate/internal/query"
	"implicate/internal/stream"
	"implicate/internal/xhash"
)

// stage is one layer entry point exercised in isolation by the replay.
type stage struct {
	name  string // span name, "<layer>.<call>"
	every int    // runs on every Nth batch; 1 for per-batch stages
	run   func(i int, b *encBatch) error
}

// stageStat is what the replay measured for one stage.
type stageStat struct {
	Calls  int
	SelfNs int64
	Tuples int64   // tuples the calls covered
	Allocs float64 // heap objects per call, from the allocation walk
}

func (s stageStat) nsPerTuple() float64 {
	if s.Tuples == 0 {
		return 0
	}
	return float64(s.SelfNs) / float64(s.Tuples)
}

func (s stageStat) nsPerCall() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.SelfNs) / float64(s.Calls)
}

// sliceReader feeds one encoded frame at a time to a FrameReader.
type sliceReader struct{ b []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// sampledEvery spaces the expensive whole-sketch stages (count, marshal,
// unmarshal, merge, fleet query): they cost tens of microseconds to
// milliseconds per call and are per-query, not per-batch, work.
const sampledEvery = 20

// replayStages builds the stage table for the rig's workload. Stages run in
// order on each batch and hand their outputs forward exactly as the serving
// path does: framed bytes to the frame reader, its payload to the decoder,
// the decoded tuples to the planner, the plan to the pool.
func (r *rig) replayStages() ([]stage, func(), error) {
	in := r.in
	served := r.sp.kind != kindLib
	workers := producerCount()
	if r.sp.kind == kindFleet {
		workers = 1 // a fleet leaf runs one worker
	}
	newEngine := func() (*query.Engine, error) {
		eng := query.NewEngine(in.schema)
		_, err := eng.RegisterSQL(in.sql, r.backend)
		return eng, err
	}
	poolEng, err := newEngine()
	if err != nil {
		return nil, nil, err
	}
	pool, err := pipeline.New(poolEng, pipeline.Config{Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	procEng, err := newEngine()
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	addSk, err := core.NewShardedSketch(in.cond, core.Options{Seed: sketchSeed}, sketchShards)
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	// The snapshot stages work on a plain sketch that has seen the pass:
	// what a fleet leaf marshals and the coordinator unmarshals and merges.
	snapSk, err := core.NewSketch(in.cond, core.Options{Seed: sketchSeed})
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	for _, b := range r.order {
		for _, t := range b.tuples {
			snapSk.Add(t[0], t[1])
		}
	}

	var (
		hdr      = stream.BinaryHeader(in.schema)
		arity    = in.schema.Len()
		projA    = in.schema.MustProj("A")
		projB    = in.schema.MustProj("B")
		ahash    = xhash.New(sketchSeed)
		bhash    = xhash.New(xhash.Mix(sketchSeed))
		rd       = &sliceReader{}
		fr       = proto.NewFrameReader(rd)
		frameBuf []byte
		ackBuf   []byte
		frame    proto.Frame
		batch    *pipeline.Batch
		tuples   []stream.Tuple
		keys     []byte
		ends     []int
		pairs    []imps.HashedPair
		blob     []byte
		other    *core.Sketch
		mergeDst *core.Sketch
	)
	var stages []stage
	add := func(name string, every int, run func(i int, b *encBatch) error) {
		stages = append(stages, stage{name, every, run})
	}
	if served {
		add("client.encode", 1, func(_ int, b *encBatch) error {
			_, err := client.EncodeBatch(in.schema, b.tuples)
			return err
		})
		add("proto.frame_write", 1, func(i int, b *encBatch) (err error) {
			frameBuf, err = proto.AppendFrame(frameBuf[:0], proto.Frame{Type: proto.TIngest, ID: uint64(i), Payload: b.payload})
			return err
		})
		add("proto.frame_read", 1, func(int, *encBatch) (err error) {
			rd.b = frameBuf
			frame, err = fr.Next()
			return err
		})
		add("stream.decode", 1, func(int, *encBatch) (err error) {
			batch = pool.NewBatch()
			tuples, err = batch.Arena().DecodeBinaryRecords(frame.Payload[len(hdr):], arity, 1<<16)
			return err
		})
		add("pipeline.plan", 1, func(int, *encBatch) error {
			pool.PlanInto(batch, tuples)
			return nil
		})
		add("pipeline.dispatch_apply", 1, func(int, *encBatch) error {
			pool.Dispatch(batch)
			pool.Fence()
			return nil
		})
		add("proto.ack_encode", 1, func(i int, b *encBatch) (err error) {
			n := int64(len(b.tuples))
			ackBuf, err = proto.AppendFrameFunc(ackBuf[:0], proto.TOK, uint64(i), func(d []byte) []byte {
				return proto.IngestAck{Tuples: n}.AppendTo(d)
			})
			return err
		})
	}
	add("stream.project", 1, func(_ int, b *encBatch) error {
		keys, ends = keys[:0], ends[:0]
		for _, t := range b.tuples {
			keys = projA.AppendKey(keys, t)
			ends = append(ends, len(keys))
			keys = projB.AppendKey(keys, t)
			ends = append(ends, len(keys))
		}
		return nil
	})
	add("xhash.sum", 1, func(int, *encBatch) error {
		var sink uint64
		lo := 0
		for k := 0; k < len(ends); k += 2 {
			sink ^= ahash.SumBytes(keys[lo:ends[k]])
			sink ^= bhash.SumBytes(keys[ends[k]:ends[k+1]])
			lo = ends[k+1]
		}
		hashSink = sink
		return nil
	})
	// Pre-hashing is preparation for core.add, not part of it; it has its
	// own span so that it does not count as the root's self time.
	add("replay.prehash", 1, func(_ int, b *encBatch) error {
		pairs = pairs[:0]
		for _, t := range b.tuples {
			ah, bh := addSk.HashPairKeys(t[0], t[1])
			pairs = append(pairs, imps.HashedPair{A: t[0], B: t[1], AH: ah, BH: bh})
		}
		return nil
	})
	add("core.add", 1, func(int, *encBatch) error {
		addSk.AddHashedPairs(pairs)
		return nil
	})
	add("query.process", 1, func(_ int, b *encBatch) error {
		procEng.ProcessBatch(b.tuples)
		return nil
	})
	add("query.count", sampledEvery, func(int, *encBatch) error {
		countSink = procEng.Statements()[0].Count()
		return nil
	})
	add("core.marshal", sampledEvery, func(int, *encBatch) (err error) {
		blob, err = snapSk.MarshalBinary()
		return err
	})
	add("core.unmarshal", sampledEvery, func(int, *encBatch) (err error) {
		other, err = core.UnmarshalSketch(blob)
		return err
	})
	add("replay.mergedst", sampledEvery, func(int, *encBatch) (err error) {
		mergeDst, err = core.UnmarshalSketch(blob)
		return err
	})
	add("core.merge", sampledEvery, func(int, *encBatch) error {
		return mergeDst.Merge(other)
	})
	if r.sp.kind == kindFleet {
		// The running fleet itself: no producer is connected any more, so
		// the replay is the coordinator's single ingest caller.
		add("coord.ingest", 1, func(_ int, b *encBatch) error {
			r.sent += int64(len(b.tuples))
			return r.co.Ingest(b.tuples)
		})
		add("coord.query", sampledEvery, func(int, *encBatch) error {
			_, err := r.co.Query(0)
			return err
		})
	}
	return stages, pool.Close, nil
}

// Sinks keep the compiler from discarding the measured calls.
var (
	hashSink  uint64
	countSink float64
)

// heapObjects reads the cumulative count of heap objects allocated.
func heapObjects(sample []metrics.Sample) uint64 {
	metrics.Read(sample)
	return sample[0].Value.Uint64() + sample[1].Value.Uint64()
}

// replay walks n of the workload's own batches through each stage in
// isolation on one goroutine: one root span per batch, one child span per
// stage call. A second, shorter walk without spans counts heap objects per
// stage call. It returns per-stage figures keyed by span name.
func (r *rig) replay(n int, sb *spanBuf) (map[string]stageStat, error) {
	stages, done, err := r.replayStages()
	if err != nil {
		return nil, err
	}
	defer done()
	order := r.order
	tuples := make([]int64, len(stages))
	for i := 0; i < n; i++ {
		b := &order[i%len(order)]
		root := sb.begin("replay.batch", 0, i)
		for k, st := range stages {
			if i%st.every != 0 {
				continue
			}
			tuples[k] += int64(len(b.tuples))
			s := sb.begin(st.name, sb.id(root), i)
			err := st.run(i, b)
			sb.end(s)
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", st.name, err)
			}
		}
		sb.end(root)
	}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	allocs := make([]uint64, len(stages))
	calls := make([]int, len(stages))
	for i := 0; i < max(n/4, sampledEvery); i++ {
		b := &order[i%len(order)]
		for k, st := range stages {
			if i%st.every != 0 {
				continue
			}
			before := heapObjects(sample)
			if err := st.run(i, b); err != nil {
				return nil, fmt.Errorf("replay %s: %w", st.name, err)
			}
			allocs[k] += heapObjects(sample) - before
			calls[k]++
		}
	}
	if r.sp.kind == kindFleet {
		if err := r.drain(); err != nil {
			return nil, err
		}
	}

	self := selfTimes(sb.spans)
	out := make(map[string]stageStat, len(stages)+1)
	for k, st := range stages {
		ss := self[st.name]
		out[st.name] = stageStat{
			Calls:  ss.Count,
			SelfNs: ss.SelfNs,
			Tuples: tuples[k],
			Allocs: float64(allocs[k]) / float64(max(calls[k], 1)),
		}
	}
	root := self["replay.batch"]
	out["replay.batch"] = stageStat{Calls: root.Count, SelfNs: root.SelfNs}
	return out, nil
}
