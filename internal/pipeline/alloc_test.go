package pipeline

import (
	"bytes"
	"encoding/binary"
	"testing"

	"implicate/internal/query"
	"implicate/internal/raceflag"
	"implicate/internal/stream"
)

// encodeRecords encodes tuples in the wire batch record format (the bytes
// after the binary header), as a producer would put them on the wire.
func encodeRecords(ts []stream.Tuple) []byte {
	var out []byte
	for _, t := range ts {
		for _, v := range t {
			out = binary.AppendUvarint(out, uint64(len(v)))
			out = append(out, v...)
		}
	}
	return out
}

// TestArenaPathAllocs pins the steady-state allocation budget of the whole
// arena path — acquire a pooled batch, decode the wire payload into its
// arena, plan, dispatch, recycle. The floor is one allocation per batch
// (the record-region string conversion, which the decoded keys alias and
// which therefore cannot be pooled); the budget leaves headroom for fence
// sentinels and occasional sync.Pool misses, and fails on any per-tuple or
// per-pair regression, which would overshoot it by orders of magnitude.
func TestArenaPathAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-detector bookkeeping allocates; the pin only holds on plain builds")
	}
	eng := query.NewEngine(testSchema(t))
	registerSuite(t, eng, backends(11)["sharded"], false)
	pool, err := New(eng, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	batches := workload(16, 256)
	payloads := make([][]byte, len(batches))
	for i, ts := range batches {
		payloads[i] = encodeRecords(ts)
	}
	const arity = 3
	cycle := func() {
		for _, p := range payloads {
			b := pool.NewBatch()
			ts, err := b.Arena().DecodeBinaryRecords(p, arity, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			pool.Dispatch(pool.PlanInto(b, ts))
		}
		pool.Fence()
	}
	// Warm every grow-only capacity — pooled batches in flight, arena and
	// bucket backing stores, estimator tables — outside the measured window.
	for i := 0; i < 8; i++ {
		cycle()
	}
	perBatch := testing.AllocsPerRun(20, cycle) / float64(len(payloads))
	if perBatch > 3 {
		t.Fatalf("arena path: %.2f allocs per batch steady-state, want <= 3", perBatch)
	}
}

// TestArenaReuseRace (run with -race) proves a released batch is never
// observed by a late worker: it hammers the acquire→decode→plan→dispatch→
// recycle loop through a tiny queue so batches recycle as fast as workers
// drain, with every decoded key aliasing arena memory the next decode
// overwrites. A worker touching a batch after its release is a write/read
// race on the arena the detector flags; the final state check catches any
// silent corruption the schedule let through.
func TestArenaReuseRace(t *testing.T) {
	batches := workload(200, 120)
	for _, name := range []string{"sharded", "exact-striped"} {
		backend := backends(13)[name]
		t.Run(name, func(t *testing.T) {
			serial := query.NewEngine(testSchema(t))
			registerSuite(t, serial, backend, false)
			for _, ts := range batches {
				serial.ProcessBatch(ts)
			}
			want, err := serial.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}

			eng := query.NewEngine(testSchema(t))
			registerSuite(t, eng, backend, false)
			pool, err := New(eng, Config{Workers: 4, QueueLen: 1})
			if err != nil {
				t.Fatal(err)
			}
			const arity = 3
			for _, ts := range batches {
				payload := encodeRecords(ts)
				b := pool.NewBatch()
				decoded, err := b.Arena().DecodeBinaryRecords(payload, arity, 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				pool.Dispatch(pool.PlanInto(b, decoded))
			}
			pool.Fence()
			got, err := eng.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			pool.Close()
			if !bytes.Equal(got, want) {
				t.Error("state after arena-recycled ingest diverged from serial run")
			}
		})
	}
}
