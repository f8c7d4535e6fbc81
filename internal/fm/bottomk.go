package fm

import (
	"fmt"
	"math"
	"sort"

	"implicate/internal/xhash"
)

// BottomK is the bottom-k distinct-count sketch of Bar-Yossef et al.
// (RANDOM 2002), the algorithm §4.7.1 cites for (ε,δ)-approximating F0: it
// retains the k smallest distinct hash values seen; with U the k-th
// smallest as a fraction of the hash space, F0 ≈ k/U. A single instance is
// an (ε, δ0)-approximation for k ≈ 1/ε²; EpsDeltaF0 drives the
// median-of-groups amplification to arbitrary δ.
type BottomK struct {
	k    int
	hash xhash.Hash
	// vals holds the k smallest distinct hashes seen, as a max-heap keyed
	// on the largest retained value, plus a membership set.
	heap []uint64
	in   map[uint64]struct{}
}

// NewBottomK returns a bottom-k sketch with the given k and hash seed.
func NewBottomK(k int, seed uint64) (*BottomK, error) {
	if k < 1 {
		return nil, fmt.Errorf("fm: bottom-k needs k >= 1, got %d", k)
	}
	return &BottomK{
		k:    k,
		hash: xhash.New(seed),
		in:   make(map[uint64]struct{}, k),
	}, nil
}

// Add observes one element.
func (b *BottomK) Add(key string) { b.AddHash(b.hash.Sum(key)) }

// AddHash observes an element by its precomputed hash.
func (b *BottomK) AddHash(h uint64) {
	if _, dup := b.in[h]; dup {
		return
	}
	if len(b.heap) < b.k {
		b.in[h] = struct{}{}
		b.heap = append(b.heap, h)
		b.up(len(b.heap) - 1)
		return
	}
	if h >= b.heap[0] {
		return
	}
	delete(b.in, b.heap[0])
	b.in[h] = struct{}{}
	b.heap[0] = h
	b.down(0)
}

func (b *BottomK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if b.heap[p] >= b.heap[i] {
			return
		}
		b.heap[p], b.heap[i] = b.heap[i], b.heap[p]
		i = p
	}
}

func (b *BottomK) down(i int) {
	n := len(b.heap)
	for {
		l, r := 2*i+1, 2*i+2
		max := i
		if l < n && b.heap[l] > b.heap[max] {
			max = l
		}
		if r < n && b.heap[r] > b.heap[max] {
			max = r
		}
		if max == i {
			return
		}
		b.heap[i], b.heap[max] = b.heap[max], b.heap[i]
		i = max
	}
}

// Size returns the number of retained hashes (min(k, distinct seen)).
func (b *BottomK) Size() int { return len(b.heap) }

// Estimate returns the F0 estimate. With fewer than k distinct elements the
// count is exact.
func (b *BottomK) Estimate() float64 {
	if len(b.heap) < b.k {
		return float64(len(b.heap))
	}
	// kth smallest = heap max; U = kth/2^64.
	u := float64(b.heap[0]) / math.Exp2(64)
	if u == 0 {
		return float64(b.k)
	}
	return float64(b.k) / u
}

// EpsDeltaF0 is the (ε, δ)-approximate distinct counter of §4.7.1: the
// median over ~log(1/δ) independent bottom-k sketches, each sized for a
// relative error ε. P(|est − F0| > ε·F0) ≤ δ.
type EpsDeltaF0 struct {
	groups []*BottomK
}

// NewEpsDeltaF0 returns an (ε, δ) distinct counter, the §4.7.1 construction.
func NewEpsDeltaF0(eps, delta float64, seed uint64) (*EpsDeltaF0, error) {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("fm: need eps, delta in (0,1); got %g, %g", eps, delta)
	}
	k := int(math.Ceil(4 / (eps * eps)))
	g := int(math.Ceil(12 * math.Log(1/delta)))
	if g%2 == 0 {
		g++ // an odd group count makes the median unambiguous
	}
	e := &EpsDeltaF0{}
	for i := 0; i < g; i++ {
		bk, err := NewBottomK(k, xhash.Mix(seed+uint64(i)+1))
		if err != nil {
			return nil, err
		}
		e.groups = append(e.groups, bk)
	}
	return e, nil
}

// Add observes one element in every group.
func (e *EpsDeltaF0) Add(key string) {
	for _, g := range e.groups {
		g.Add(key)
	}
}

// Estimate returns the median of the group estimates.
func (e *EpsDeltaF0) Estimate() float64 {
	ests := make([]float64, len(e.groups))
	for i, g := range e.groups {
		ests[i] = g.Estimate()
	}
	sort.Float64s(ests)
	return ests[len(ests)/2]
}

// Groups returns the number of independent sketches.
func (e *EpsDeltaF0) Groups() int { return len(e.groups) }

// MemEntries reports retained hash values across all groups.
func (e *EpsDeltaF0) MemEntries() int {
	n := 0
	for _, g := range e.groups {
		n += g.Size()
	}
	return n
}
