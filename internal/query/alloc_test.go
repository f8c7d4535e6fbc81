package query

import (
	"fmt"
	"testing"

	"implicate/internal/core"
	"implicate/internal/imps"
	"implicate/internal/raceflag"
	"implicate/internal/stream"
)

// TestProcessBatchAllocs pins the library path's allocation budget: a
// single-attribute projection plans into the batch's own strings and
// allocates nothing; a multi-attribute one pays exactly the one per-batch
// key-string conversion. Any per-tuple allocation overshoots by three
// orders of magnitude.
func TestProcessBatchAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-detector bookkeeping allocates; the pin only holds on plain builds")
	}
	batch := make([]stream.Tuple, 1000)
	for i := range batch {
		batch[i] = stream.Tuple{fmt.Sprintf("s%d", i%211), fmt.Sprintf("d%d", i%13), fmt.Sprintf("svc%d", i%3)}
	}
	backends := map[string]Backend{
		"sketch": func(cond imps.Conditions) (imps.Estimator, error) {
			return core.NewSketch(cond, core.Options{Seed: 3})
		},
		"sharded": func(cond imps.Conditions) (imps.Estimator, error) {
			return core.NewShardedSketch(cond, core.Options{Seed: 3}, 4)
		},
	}
	for name, backend := range backends {
		for _, c := range []struct {
			sql  string
			want float64
		}{
			{`SELECT COUNT(DISTINCT Source) FROM s WHERE Source IMPLIES Destination`, 0},
			{`SELECT COUNT(DISTINCT Source) FROM s WHERE Source IMPLIES Destination GROUP BY Service`, 1},
		} {
			eng := NewEngine(stream.MustSchema("Source", "Destination", "Service"))
			if _, err := eng.RegisterSQL(c.sql, backend); err != nil {
				t.Fatal(err)
			}
			// Warm the grow-only plan memory and the estimator's cells.
			for i := 0; i < 8; i++ {
				eng.ProcessBatch(batch)
			}
			if got := testing.AllocsPerRun(20, func() { eng.ProcessBatch(batch) }); got > c.want {
				t.Errorf("%s, %q: %.1f allocs per 1000-tuple batch, want <= %v", name, c.sql, got, c.want)
			}
			// Process is a batch of one: the same budget per tuple.
			if got := testing.AllocsPerRun(100, func() { eng.Process(batch[0]) }); got > c.want {
				t.Errorf("%s, %q: %.1f allocs per Process, want <= %v", name, c.sql, got, c.want)
			}
		}
	}
}
