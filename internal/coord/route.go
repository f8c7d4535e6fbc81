// Partition routing for the coordinator (DESIGN.md §12): tuple → route key
// → bitmap → leaf. The route key is the template statement's A-projection
// (A attributes plus GROUP BY, byte for byte the key its estimators hash),
// and the partition is the bitmap that key updates in the leaves'
// statement-0 sketch, so every leaf owns whole bitmaps, in stream order, and
// the merged fleet state is a disjoint union: one sketch fed the stream.
//
// The table is immutable after construction, and deliberately blind to
// liveness: a dead leaf keeps its bitmaps, and its traffic queues in its
// journal until recovery re-admits it. Routing around failures would make
// the tuple→leaf assignment depend on failure timing, and the fleet's
// bit-identity contract (a crashed-and-recovered fleet equals an uncrashed
// shadow) forbids exactly that.
package coord

import (
	"fmt"
	"sort"

	"implicate/internal/core"
	"implicate/internal/stream"
	"implicate/internal/xhash"
)

// routeTable is the immutable bitmap→leaf assignment.
type routeTable struct {
	sk    *core.Sketch // the leaves' hash family and bitmap count; holds no state
	proj  stream.Proj
	owner []int    // bitmap → leaf index
	share []uint32 // leaf index → bitmaps owned
}

// newRouteTable routes on sk's bitmaps. sk is only hashed with, never fed.
func newRouteTable(schema *stream.Schema, attrs []string, sk *core.Sketch, names []string) (*routeTable, error) {
	m := sk.Options().Bitmaps
	if len(names) > m {
		return nil, fmt.Errorf("coord: %d leaves cannot share %d bitmaps; run at most as many leaves as the sketch has bitmaps", len(names), m)
	}
	proj, err := schema.Proj(attrs...)
	if err != nil {
		return nil, fmt.Errorf("coord: route key: %w", err)
	}
	rt := &routeTable{sk: sk, proj: proj, owner: assign(names, m), share: make([]uint32, len(names))}
	for _, leaf := range rt.owner {
		rt.share[leaf]++
	}
	return rt, nil
}

// assign is the bounded-load bitmap→leaf table: every leaf owns ⌊m/n⌋ or
// ⌈m/n⌉ of the m bitmaps, as a pure function of the leaf names (not their
// order). Leaves join in name order, shorter names first (leaf9 before
// leaf10); each newcomer takes ⌊m/k⌋ bitmaps, from every earlier leaf its
// share above the new bound, picking by its name-keyed rendezvous score. So
// growing a fleet by a name that sorts last moves only the newcomer's share.
func assign(names []string, m int) []int {
	order := make([]int, len(names)) // join position → index in names
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		a, b := names[order[x]], names[order[y]]
		return len(a) < len(b) || (len(a) == len(b) && a < b)
	})
	owner := make([]int, m) // bitmap → join position
	share := []int{m}
	bms := make([]int, m)
	for k := 1; k < len(order); k++ {
		q, r := m/(k+1), m%(k+1)
		keep := make([]int, k) // the first r leaves above q keep q+1
		for i := range keep {
			if keep[i] = q; share[i] > q && r > 0 {
				keep[i], r = q+1, r-1
			}
		}
		nameH := xhash.New(0).Sum(names[order[k]])
		score := func(bm int) uint64 { return xhash.Mix(xhash.Mix(uint64(bm)+1) ^ nameH) }
		for i := range bms {
			bms[i] = i
		}
		sort.Slice(bms, func(x, y int) bool { return score(bms[x]) > score(bms[y]) })
		share = append(share, 0)
		for _, bm := range bms {
			if from := owner[bm]; share[from] > keep[from] {
				owner[bm] = k
				share[from]--
				share[k]++
			}
		}
	}
	for bm, pos := range owner {
		owner[bm] = order[pos]
	}
	return owner
}

// leafOf routes one encoded route key (proj.AppendKey form, built from a
// tuple or from a raw record's spans): the leaf index that must ingest it.
func (rt *routeTable) leafOf(key []byte) int {
	return rt.owner[rt.sk.BitmapOf(key)]
}
