// Partition routing for the coordinator (DESIGN.md §12): tuple → route key
// → virtual partition → leaf.
//
// The route key is the template statement's A-projection (A attributes plus
// GROUP BY, the same key its estimators hash), so all tuples of one itemset
// land on one leaf and every leaf's sketch sees a disjoint key population.
// Keys map to a fixed power-of-two number of virtual partitions through a
// Partitioner — a stable key→partition function, like the one the
// in-process pipeline plans with — and virtual partitions map to leaves by
// rendezvous hashing over the stable leaf names, so growing the fleet moves
// only the partitions the new leaf wins.
//
// The table is immutable after construction, and deliberately blind to
// liveness: a dead leaf keeps its partitions, and its traffic queues in its
// journal until recovery re-admits it. Routing around failures would make
// the tuple→leaf assignment depend on failure timing, and the fleet's
// bit-identity contract (a crashed-and-recovered fleet equals an uncrashed
// shadow) forbids exactly that.
package coord

import (
	"fmt"

	"implicate/internal/stream"
	"implicate/internal/xhash"
)

// Partitioner maps an encoded route key to one of n partitions, n a power
// of two >= 1: every key maps to exactly one partition for a given n, and
// the mapping is a pure function of the key. The router works on the raw
// wire bytes, so the key is a byte slice it may reuse after the call. The
// default is an xhash router with a fixed seed, so two coordinators
// configured alike route alike.
type Partitioner interface {
	IngestPartition(a []byte, n int) int
}

// routeSeed fixes the default router's hash so routing is a pure function
// of configuration — a coordinator restart, or a shadow fleet, routes
// identically.
const routeSeed = 0x1cde2005

// hashRouter is the default Partitioner.
type hashRouter struct{ h xhash.Hash }

func (r hashRouter) IngestPartition(a []byte, n int) int {
	return int(r.h.SumBytes(a) & uint64(n-1))
}

// routeTable is the immutable partition→leaf assignment.
type routeTable struct {
	parts int
	part  Partitioner
	proj  stream.Proj
	owner []int    // virtual partition → leaf index
	share []uint32 // leaf index → partitions owned
}

func newRouteTable(schema *stream.Schema, attrs []string, part Partitioner, parts int, names []string) (*routeTable, error) {
	if parts < 1 || parts&(parts-1) != 0 {
		return nil, fmt.Errorf("coord: %d virtual partitions; must be a power of two >= 1", parts)
	}
	if len(names) < 1 {
		return nil, fmt.Errorf("coord: a fleet needs at least one leaf")
	}
	if parts < len(names) {
		return nil, fmt.Errorf("coord: %d virtual partitions cannot cover %d leaves", parts, len(names))
	}
	proj, err := schema.Proj(attrs...)
	if err != nil {
		return nil, fmt.Errorf("coord: route key: %w", err)
	}
	if part == nil {
		part = hashRouter{h: xhash.New(routeSeed)}
	}
	rt := &routeTable{
		parts: parts,
		part:  part,
		proj:  proj,
		owner: make([]int, parts),
		share: make([]uint32, len(names)),
	}
	// Rendezvous assignment: each partition goes to the leaf whose
	// (partition, name) score is highest. Stable under fleet growth — a new
	// name only claims the partitions it out-scores everyone on.
	nameH := make([]uint64, len(names))
	for i, n := range names {
		nameH[i] = xhash.New(routeSeed).Sum(n)
	}
	for p := 0; p < parts; p++ {
		ph := xhash.Mix(uint64(p) + 1)
		best, bestScore := 0, uint64(0)
		for i, nh := range nameH {
			if score := xhash.Mix(ph ^ nh); score > bestScore || (score == bestScore && i < best) {
				best, bestScore = i, score
			}
		}
		rt.owner[p] = best
		rt.share[best]++
	}
	return rt, nil
}

// leafOf routes one encoded route key (proj.AppendKey form, built from a
// tuple or from a raw record's spans): the leaf index that must ingest it.
func (rt *routeTable) leafOf(key []byte) int {
	return rt.owner[rt.part.IngestPartition(key, rt.parts)]
}
