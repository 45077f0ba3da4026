package core

import (
	"fmt"
	"sync"
)

// SortedPartition is the reusable half of a Satisfies check: the row order of
// a relation under ≼X together with the adjacent-tie structure of X. Sorting
// is the O(n log n) part of validating an OD X ↦ Y against data; everything
// the left-hand side contributes is captured here, so every candidate sharing
// the context X can be answered with one O(n·|Y|) scan over the cached order
// instead of a fresh sort — the sort-partition reuse at the heart of set-based
// OD discovery.
type SortedPartition struct {
	// Context is the attribute list the rows are ordered by.
	Context List
	// Index holds the row indices in ≼Context order (stable, so rows tied
	// on the context keep their relative order).
	Index []int
	// Tie[k] reports that rows Index[k] and Index[k+1] are equal on the
	// context — they belong to the same partition group. len(Tie) is
	// len(Index)-1 for non-empty relations, 0 otherwise.
	Tie []bool
	// Groups counts the partition's equivalence classes under =Context.
	Groups int
}

// SortPartitionOn sorts the relation once by ≼x and materializes the
// partition structure every RHS candidate over the context x can reuse.
func (r *Relation) SortPartitionOn(x List) (*SortedPartition, error) {
	cols, _, err := r.ranksOn(x, nil)
	if err != nil {
		return nil, err
	}
	s := scratchPool.Get().(*sortScratch)
	defer scratchPool.Put(s)
	order := s.order(len(r.rows), cols)
	p := &SortedPartition{Context: x.Clone(), Index: make([]int, len(order))}
	if len(order) == 0 {
		return p, nil
	}
	p.Tie = make([]bool, len(order)-1)
	p.Groups = 1
	for k, i := range order {
		p.Index[k] = int(i)
		if k == 0 {
			continue
		}
		p.Tie[k-1] = cmpRanks(cols, order[k-1], i) == 0
		if !p.Tie[k-1] {
			p.Groups++
		}
	}
	return p, nil
}

// SatisfiesWith checks r ⊨ od against a precomputed sorted partition of
// od.LHS. It is Satisfies with the sort and the left-hand comparisons paid
// once per context: only the right-hand side is compared per adjacent pair.
// The partition's context must equal od.LHS.
func (r *Relation) SatisfiesWith(od OD, p *SortedPartition) (bool, *Violation, error) {
	if !p.Context.Equal(od.LHS) {
		return false, nil, fmt.Errorf("core: partition context %v does not match LHS %v", p.Context, od.LHS)
	}
	_, ry, err := r.ranksOn(nil, od.RHS)
	if err != nil {
		return false, nil, err
	}
	for k := 0; k+1 < len(p.Index); k++ {
		s, t := p.Index[k], p.Index[k+1]
		cy := cmpRanks(ry, int32(s), int32(t))
		switch {
		case p.Tie[k] && cy != 0:
			if cy > 0 {
				s, t = t, s
			}
			return false, &Violation{OD: od, Kind: Split, S: s, T: t}, nil
		case !p.Tie[k] && cy > 0:
			return false, &Violation{OD: od, Kind: Swap, S: s, T: t}, nil
		}
	}
	return true, nil, nil
}

// SortCache memoizes sorted partitions per context key so one relation sort
// serves every candidate sharing a left-hand side. It is safe for concurrent
// use; concurrent misses on the same context may sort twice but publish one
// winner. A capacity bound keeps memory proportional to the contexts actually
// revisited: once full, new contexts are computed but not retained.
type SortCache struct {
	r   *Relation
	cap int

	mu sync.Mutex
	m  map[string]*SortedPartition

	hits, misses uint64
}

// NewSortCache builds a cache over r holding up to capacity contexts;
// capacity <= 0 selects an unbounded cache.
func NewSortCache(r *Relation, capacity int) *SortCache {
	return &SortCache{r: r, cap: capacity, m: make(map[string]*SortedPartition)}
}

// Get returns the sorted partition for context x, sorting and caching on the
// first request.
func (c *SortCache) Get(x List) (*SortedPartition, error) {
	key := x.Key()
	c.mu.Lock()
	if p, ok := c.m[key]; ok {
		c.hits++
		c.mu.Unlock()
		return p, nil
	}
	c.misses++
	c.mu.Unlock()
	p, err := c.r.SortPartitionOn(x)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if prev, ok := c.m[key]; ok {
		p = prev // a concurrent miss won the publish; converge on it
	} else if c.cap <= 0 || len(c.m) < c.cap {
		c.m[key] = p
	}
	c.mu.Unlock()
	return p, nil
}

// Stats reports cache effectiveness: contexts retained, hits and misses.
func (c *SortCache) Stats() (size int, hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.hits, c.misses
}
