package telemetry

import (
	"bytes"
	"testing"
	"time"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the decoder the coordinator
// runs on every leaf's Stats reply. It must never panic, and with one wire
// format the encoding is canonical: every input that decodes re-encodes to
// exactly the bytes it came from.
func FuzzDecodeSnapshot(f *testing.F) {
	// The golden vector (TestABI in internal/client): a quiet default Set
	// with one ingest observation.
	var quiet Set
	quiet.Observe(RPCIngest, time.Microsecond)
	golden := quiet.Snapshot().Encode()
	f.Add(golden)
	f.Add(golden[:len(golden)/2])

	// Every variable-length block populated, so the fuzzer starts past the
	// count guards.
	var busy Set
	busy.AddTuples(1 << 20)
	busy.AddUDPReorder()
	busy.ConfigureWorkers(2)
	busy.AddWorkerTask(1, 64)
	full := busy.Snapshot()
	full.Tenants = []TenantStats{{Name: "acme", Weight: 2, Tuples: 9}}
	full.Shards = []ShardStats{{Lane: "acme", Shard: 1, Tasks: 3, HighWater: 2}}
	f.Add(full.Encode())
	f.Add([]byte(snapshotMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if again := sn.Encode(); !bytes.Equal(again, data) {
			t.Fatalf("decoded snapshot re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}
