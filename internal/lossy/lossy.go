// Package lossy implements the frequent-itemset baseline of §5: the Lossy
// Counting algorithm of Manku & Motwani (VLDB 2002) and the paper's
// implication extension of it, ILC (Implication Lossy Counting, §5.1). The
// paper extends this algorithm to show it cannot answer implication-count
// queries: its minimum support is inherently relative to the stream length,
// so the cumulative effect of small implications is lost as the stream
// grows, and dirty entries accumulate without bound (§5.1.1).
package lossy

import (
	"fmt"
	"sort"
)

// Counter is classic Lossy Counting over single items: it maintains
// (item, count, Δ) entries, prunes at bucket boundaries, and answers
// frequency queries with error at most ε·N.
type Counter struct {
	eps     float64
	width   int64 // bucket width w = ceil(1/ε)
	n       int64
	entries map[string]*entry
}

type entry struct {
	count int64
	delta int64
}

// NewCounter returns a Lossy Counter with approximation parameter eps.
func NewCounter(eps float64) (*Counter, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("lossy: eps must be in (0,1), got %g", eps)
	}
	return &Counter{
		eps:     eps,
		width:   int64(1/eps + 0.5),
		entries: make(map[string]*entry),
	}, nil
}

// MustCounter is NewCounter panicking on error.
func MustCounter(eps float64) *Counter {
	c, err := NewCounter(eps)
	if err != nil {
		panic(err)
	}
	return c
}

// Add observes one item.
func (c *Counter) Add(item string) {
	c.n++
	bcur := (c.n-1)/c.width + 1
	if e, ok := c.entries[item]; ok {
		e.count++
	} else {
		c.entries[item] = &entry{count: 1, delta: bcur - 1}
	}
	if c.n%c.width == 0 {
		c.prune(bcur)
	}
}

func (c *Counter) prune(bcur int64) {
	for item, e := range c.entries {
		if e.count+e.delta <= bcur {
			delete(c.entries, item)
		}
	}
}

// N returns the number of items observed.
func (c *Counter) N() int64 { return c.n }

// Entries returns the number of live sample entries.
func (c *Counter) Entries() int { return len(c.entries) }

// Count returns the tracked count of item (an undercount by at most ε·N).
func (c *Counter) Count(item string) int64 {
	if e, ok := c.entries[item]; ok {
		return e.count
	}
	return 0
}

// Frequent returns all items with estimated frequency at least s·N, for a
// relative support s > ε, sorted. The guarantee: no item with true
// frequency ≥ s·N is missed, and no item below (s−ε)·N is returned.
func (c *Counter) Frequent(s float64) []string {
	threshold := (s - c.eps) * float64(c.n)
	var out []string
	for item, e := range c.entries {
		if float64(e.count) >= threshold {
			out = append(out, item)
		}
	}
	sort.Strings(out)
	return out
}
