package main

import (
	"fmt"
	"strconv"

	"implicate/internal/client"
	"implicate/internal/exact"
	"implicate/internal/gen"
	"implicate/internal/imps"
	"implicate/internal/stream"
)

// encBatch is one ingest batch in both forms a workload may need: the
// tuples (library path, replay) and their wire encoding (served paths).
type encBatch struct {
	tuples  []stream.Tuple
	payload []byte
}

// inputs is everything a workload is given: one pass of Dataset One and the
// statement to evaluate over it. It is a pure function of (seed, pass
// length, batch size, producer count); the program under test sees nothing
// else.
type inputs struct {
	seed   int64
	schema *stream.Schema
	cond   imps.Conditions
	sql    string
	tuples []stream.Tuple
	// exact is the oracle's implication count over the pass.
	exact float64
	// producers holds each producer's batches. Tuples are routed by FNV-1a
	// of the A key, so every key's tuple order is fixed end to end no
	// matter how the producers interleave.
	producers [][]encBatch
}

// sketchSeed selects the estimators' hash family in every workload. It is a
// constant of the program's configuration, like the shard count, and not a
// function of the workload seed: the A-identifiers of Dataset One are the
// same for every seed, so with a fixed hash family the accuracy and
// footprint figures move only with the data (a few percent between seeds),
// whereas redrawing the hash family per seed moved relerr between 0.01 and
// 0.21. Same-seed Sketch and ShardedSketch are bit-identical, so the figures
// are comparable across the four workloads.
const sketchSeed = 3

// newInputs generates the pass (the generator's full shuffled output, not a
// prefix of a larger one), renders printable keys (the wire schema rejects
// gen.Key's binary form), runs the exact oracle, and pre-encodes the
// batches.
func newInputs(seed int64, pass, batch, producers int, encode bool) (*inputs, error) {
	cardA := pass / 60
	d, err := gen.NewDatasetOne(gen.DatasetOneConfig{
		CardA:   cardA,
		Count:   cardA / 2,
		C:       2,
		Support: 50,
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	schema, err := stream.NewSchema("A", "B")
	if err != nil {
		return nil, err
	}
	in := &inputs{
		seed:   seed,
		schema: schema,
		cond:   d.Conditions,
		sql: fmt.Sprintf("SELECT COUNT(DISTINCT A) FROM s WHERE A IMPLIES B WITH SUPPORT >= %d, MULTIPLICITY <= %d, CONFIDENCE >= %g TOP %d",
			d.Conditions.MinSupport, d.Conditions.MaxMultiplicity, d.Conditions.MinTopConfidence, d.Conditions.TopC),
	}

	// One string per distinct identifier; tuples share them.
	var aKeys, bKeys []string
	key := func(tab *[]string, prefix string, id uint64) string {
		for uint64(len(*tab)) <= id {
			*tab = append(*tab, "")
		}
		if (*tab)[id] == "" {
			(*tab)[id] = prefix + strconv.FormatUint(id, 10)
		}
		return (*tab)[id]
	}
	flat := make([]string, 2*len(d.Pairs))
	in.tuples = make([]stream.Tuple, len(d.Pairs))
	oracle, err := exact.NewCounter(d.Conditions)
	if err != nil {
		return nil, err
	}
	byProducer := make([][]stream.Tuple, producers)
	for i, p := range d.Pairs {
		a, b := key(&aKeys, "a", p.A), key(&bKeys, "b", p.B)
		flat[2*i], flat[2*i+1] = a, b
		t := stream.Tuple(flat[2*i : 2*i+2 : 2*i+2])
		in.tuples[i] = t
		oracle.Add(a, b)
		h := uint64(14695981039346656037)
		for j := 0; j < len(a); j++ {
			h = (h ^ uint64(a[j])) * 1099511628211
		}
		w := int(h % uint64(producers))
		byProducer[w] = append(byProducer[w], t)
	}
	in.exact = oracle.ImplicationCount()
	if in.exact <= 0 {
		return nil, fmt.Errorf("oracle found no implications in the pass")
	}

	in.producers = make([][]encBatch, producers)
	for p, own := range byProducer {
		for off := 0; off < len(own); off += batch {
			b := encBatch{tuples: own[off:min(off+batch, len(own))]}
			if encode {
				if b.payload, err = client.EncodeBatch(schema, b.tuples); err != nil {
					return nil, err
				}
			}
			in.producers[p] = append(in.producers[p], b)
		}
	}
	return in, nil
}

// passOrder is the fixed single-connection order of the verification pass:
// producer 0's batches, then producer 1's, and so on.
func (in *inputs) passOrder() []encBatch {
	var out []encBatch
	for _, bs := range in.producers {
		out = append(out, bs...)
	}
	return out
}
