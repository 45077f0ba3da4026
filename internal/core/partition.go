package core

import (
	"encoding/binary"
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
	// Context is the attribute list the rows are ordered by. It is nil on a
	// partition asked for by column position (SortCache.GetCols), whose
	// caller holds the context itself.
	Context List
	// Index holds the row indices in ≼Context order (stable, so rows tied
	// on the context keep their relative order).
	Index []int32
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
	p := &SortedPartition{Context: x.Clone()}
	r.sortInto(p, cols, &partitionArrays{index: make([]int32, r.n), tie: make([]bool, max(r.n-1, 0))})
	return p, nil
}

// sortInto sorts the relation by the rank columns into p, on the given arrays
// sized for the relation — fresh ones, or a SortCache's pooled ones.
func (r *Relation) sortInto(p *SortedPartition, cols []*colRanks, arr *partitionArrays) {
	s := scratchPool.Get().(*sortScratch)
	defer scratchPool.Put(s)
	p.Index = arr.index
	copy(p.Index, s.order(r.n, cols))
	if r.n == 0 {
		return
	}
	p.Tie = arr.tie
	if len(cols) == 1 {
		for k := range p.Tie {
			p.Tie[k] = true
		}
		p.Groups = r.n - narrowTies(p.Tie, p.Index, cols[0].rank)
		return
	}
	p.Groups = 1
	for k := range p.Tie {
		p.Tie[k] = cmpRanks(cols, p.Index[k], p.Index[k+1]) == 0
		if !p.Tie[k] {
			p.Groups++
		}
	}
}

// SatisfiesWith checks r ⊨ od against a precomputed sorted partition of
// od.LHS. It is Satisfies with the sort and the left-hand comparisons paid
// once per context: only the right-hand side is compared per adjacent pair.
// The partition's context must equal od.LHS. The witness of a refutation is
// returned by value, the zero Violation when the OD holds, so a check
// allocates nothing either way.
func (r *Relation) SatisfiesWith(od OD, p *SortedPartition) (bool, Violation, error) {
	if !p.Context.Equal(od.LHS) {
		return false, Violation{}, fmt.Errorf("core: partition context %v does not match LHS %v", p.Context, od.LHS)
	}
	var onStack [8]*colRanks // every right-hand side discovery asks about fits
	ry, err := r.ranksInto(onStack[:0], od.RHS)
	if err != nil {
		return false, Violation{}, err
	}
	kind, s, t := scan(p, ry)
	if kind != 0 {
		return false, Violation{OD: od, Kind: kind, S: int(s), T: int(t)}, nil
	}
	return true, Violation{}, nil
}

// CheckCols is SatisfiesWith for a caller that holds its lists as schema
// positions: it reports how the rows, in p's order, falsify the OD from p's
// context to the columns y — zero when it holds. The columns are resolved by
// position, with no name looked up, and p may be any partition of the
// relation, GetCols' included. It allocates nothing.
func (r *Relation) CheckCols(p *SortedPartition, y []int) (ViolationKind, error) {
	var onStack [8]*colRanks
	ry, err := r.ranksAt(onStack[:0], y)
	if err != nil {
		return 0, err
	}
	kind, _, _ := scan(p, ry)
	return kind, nil
}

// scan walks p's order once and returns the first adjacent pair the rank
// columns ry misorder: a Split when the pair ties on p's context, a Swap when
// it is strictly ordered there; zero when there is none. A split's rows come
// back ordered by ry.
func scan(p *SortedPartition, ry []*colRanks) (kind ViolationKind, s, t int32) {
	var k int
	switch idx, tie := p.Index, p.Tie; len(ry) {
	case 1:
		k = scan1(idx, tie, ry[0].rank)
	case 2:
		k = scan2(idx, tie, ry[0].rank, ry[1].rank)
	case 3:
		k = scan3(idx, tie, ry[0].rank, ry[1].rank, ry[2].rank)
	default:
		k = scanN(idx, tie, ry)
	}
	if k < 0 {
		return 0, 0, 0
	}
	s, t = p.Index[k], p.Index[k+1]
	if !p.Tie[k] {
		return Swap, s, t
	}
	if cmpRanks(ry, s, t) > 0 {
		s, t = t, s
	}
	return Split, s, t
}

// scan1, scan2 and scan3 are scanN for one, two and three rank columns, held
// outside the loop: each returns the first k at which the rows idx[k] and
// idx[k+1] differ on the columns while tie[k], or are ordered after one
// another, and -1 when there is none. Each carries the previous row's ranks
// instead of gathering both rows' at every step. Unlike narrowTies they
// branch on the data: a context's order mostly agrees with the columns
// checked over it, so the branches predict well, and a branch-free step
// measured slower.
func scan1(idx []int32, tie []bool, r0 []int32) int {
	if len(idx) < 2 {
		return -1
	}
	tie = tie[:len(idx)-1]
	a := r0[idx[0]]
	for k, i := range idx[1:] {
		b := r0[i]
		if a != b && (tie[k] || a > b) {
			return k
		}
		a = b
	}
	return -1
}

func scan2(idx []int32, tie []bool, r0, r1 []int32) int {
	if len(idx) < 2 {
		return -1
	}
	tie = tie[:len(idx)-1]
	a0, a1 := r0[idx[0]], r1[idx[0]]
	for k, i := range idx[1:] {
		b0, b1 := r0[i], r1[i]
		if (a0 != b0 || a1 != b1) && (tie[k] || a0 > b0 || a0 == b0 && a1 > b1) {
			return k
		}
		a0, a1 = b0, b1
	}
	return -1
}

func scan3(idx []int32, tie []bool, r0, r1, r2 []int32) int {
	if len(idx) < 2 {
		return -1
	}
	tie = tie[:len(idx)-1]
	a0, a1, a2 := r0[idx[0]], r1[idx[0]], r2[idx[0]]
	for k, i := range idx[1:] {
		b0, b1, b2 := r0[i], r1[i], r2[i]
		if (a0 != b0 || a1 != b1 || a2 != b2) &&
			(tie[k] || a0 > b0 || a0 == b0 && (a1 > b1 || a1 == b1 && a2 > b2)) {
			return k
		}
		a0, a1, a2 = b0, b1, b2
	}
	return -1
}

func scanN(idx []int32, tie []bool, ry []*colRanks) int {
	for k := 0; k+1 < len(idx); k++ {
		if cy := cmpRanks(ry, idx[k], idx[k+1]); cy != 0 && (tie[k] || cy > 0) {
			return k
		}
	}
	return -1
}

// SortCache memoizes sorted partitions per context so one ordering of the
// relation serves every candidate sharing a left-hand side, and the ordering
// of a context X·A is refined from the cached partition of X rather than
// sorted from scratch: only the empty and one-attribute contexts sort the
// relation. A prefix nobody asked for is built on the way and retained. It is
// safe for concurrent use; concurrent misses on the same context may each
// build it but publish one winner.
//
// A context is keyed by its column positions, never by a rendering of its
// names: Get resolves a list's names once, and GetCols takes the positions a
// caller already holds, so a discovery run that numbers its lists asks with
// no name looked up and no string built but each new context's key.
//
// Hits and misses count the contexts callers asked Get for — a context's
// first request is a miss, every later one a hit — whatever that took: a
// prefix retained on the way to a longer context is neither, and when it is
// asked for itself its first request is still a miss.
//
// The cache owns the Index and Tie arrays of the partitions it builds, drawn
// from a pool shared by every cache; Release returns them to it.
type SortCache struct {
	r *Relation

	mu sync.Mutex
	m  map[string]*cachedPartition // by colsKey

	hits, misses uint64
}

// cachedPartition is a retained partition, whether a caller has asked for
// its context yet, and the pooled arrays it owns — nil when it shares a
// prefix's.
type cachedPartition struct {
	p     SortedPartition
	asked bool
	arr   *partitionArrays
}

// partitionArrays are the Index and Tie arrays of one partition.
type partitionArrays struct {
	index []int32
	tie   []bool
}

// arraysPool holds the arrays of released caches, whatever their relation's
// size: takeArrays resizes what it is given, so a pool fed by runs over
// relations of several sizes converges on arrays fit for the largest.
var arraysPool = sync.Pool{New: func() any { return new(partitionArrays) }}

// takeArrays returns pooled arrays sized for an n-row relation, contents
// unspecified.
func takeArrays(n int) *partitionArrays {
	arr := arraysPool.Get().(*partitionArrays)
	arr.index, arr.tie = sized(arr.index, n), sized(arr.tie, max(n-1, 0))
	return arr
}

// NewSortCache builds a cache over r.
func NewSortCache(r *Relation) *SortCache {
	return &SortCache{r: r, m: make(map[string]*cachedPartition)}
}

// Get returns the sorted partition for context x, building and caching it on
// the first request. The partition returned carries x as its Context.
func (c *SortCache) Get(x List) (*SortedPartition, error) {
	var onStack [8]int
	cols := onStack[:0]
	for _, a := range x {
		col, err := c.r.Col(a)
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
	}
	p, err := c.get(cols, true)
	if err != nil {
		return nil, err
	}
	named := *p
	named.Context = x.Clone()
	return &named, nil
}

// GetCols is Get for a context given as schema positions. The partition it
// returns is the cache's own, with no Context: it allocates nothing once the
// context is cached.
func (c *SortCache) GetCols(x []int) (*SortedPartition, error) {
	for _, col := range x {
		if col < 0 || col >= len(c.r.attrs) {
			return nil, fmt.Errorf("core: column %d not in schema %v", col, c.r.attrs)
		}
	}
	return c.get(x, true)
}

// colsKey appends the cache key of the context x to dst: its positions as
// uvarints, one byte each below 128.
func colsKey(dst []byte, x []int) []byte {
	for _, col := range x {
		dst = binary.AppendUvarint(dst, uint64(col))
	}
	return dst
}

// get is GetCols for a caller's context (asked) and for the prefix a longer
// context is refined from (not asked, and so not counted). The positions are
// in range.
func (c *SortCache) get(x []int, asked bool) (*SortedPartition, error) {
	var onStack [16]byte
	key := colsKey(onStack[:0], x)
	c.mu.Lock()
	e := c.m[string(key)]
	if asked {
		if e != nil && e.asked {
			c.hits++
		} else {
			c.misses++
		}
		if e != nil {
			e.asked = true
		}
	}
	c.mu.Unlock()
	if e != nil {
		return &e.p, nil
	}
	e = &cachedPartition{asked: asked}
	if len(x) <= 1 {
		var one [1]*colRanks
		cols, err := c.r.ranksAt(one[:0], x)
		if err != nil {
			return nil, err
		}
		e.arr = takeArrays(c.r.n)
		c.r.sortInto(&e.p, cols, e.arr)
	} else if err := c.refine(e, x); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if prev := c.m[string(key)]; prev != nil {
		// A concurrent miss won the publish: converge on it, and the losing
		// copy, which nobody else has seen, gives its arrays back.
		prev.asked = prev.asked || asked
		if e.arr != nil {
			arraysPool.Put(e.arr)
		}
		e = prev
	} else {
		c.m[string(key)] = e
	}
	c.mu.Unlock()
	return &e.p, nil
}

// Release returns the arrays of every partition the cache built to the pool,
// each once: a partition sharing its prefix's arrays owns none, and a losing
// concurrent copy gave its own back when it lost. Neither the cache nor any
// partition it returned may be used after; releasing again does nothing.
func (c *SortCache) Release() {
	c.mu.Lock()
	m := c.m
	c.m = nil
	c.mu.Unlock()
	for _, e := range m {
		if e.arr != nil {
			arraysPool.Put(e.arr)
		}
	}
}

// refine builds into e the partition of the context x = X·A from the
// partitions of X and of [A], both through the cache: the order of X·A is the
// order of X with each class of X ordered, stably, by A, and two neighbours
// tie on X·A when they tie on X and on A — the partition refinement of
// set-based OD discovery, in place of a sort of the whole relation by every
// attribute of x. It is the last pass of that sort alone: the rows, taken in
// A's order, are dealt into the classes of X, so a class fills in A's order
// with ties in row order — which is how every partition here orders its ties.
// Where A cannot reorder anything — it is constant, or every class of X is
// one row — the partition shares X's arrays and e owns none; otherwise e owns
// the pooled arrays it is built in.
func (c *SortCache) refine(e *cachedPartition, x []int) error {
	px, err := c.get(x[:len(x)-1], false)
	if err != nil {
		return err
	}
	pa, err := c.get(x[len(x)-1:], false)
	if err != nil {
		return err
	}
	var one [1]*colRanks
	ra, err := c.r.ranksAt(one[:0], x[len(x)-1:])
	if err != nil {
		return err
	}
	n, q := c.r.n, &e.p
	q.Index, q.Tie, q.Groups = px.Index, px.Tie, px.Groups
	if pa.Groups <= 1 || px.Groups == n {
		return nil
	}
	s := scratchPool.Get().(*sortScratch)
	defer scratchPool.Put(s)
	// class[i] is the class of X row i belongs to, next[g] the slot the next
	// row of class g goes to.
	s.a, s.next = sized(s.a, n), sized(s.next, px.Groups)
	class, next := s.a, s.next
	g := int32(0)
	next[0] = 0
	for k, i := range px.Index {
		if k > 0 && !px.Tie[k-1] {
			g++
			next[g] = int32(k)
		}
		class[i] = g
	}
	e.arr = takeArrays(n)
	q.Index, q.Tie = e.arr.index, e.arr.tie
	copy(q.Tie, px.Tie)
	for _, i := range pa.Index {
		g := class[i]
		q.Index[next[g]] = i
		next[g]++
	}
	q.Groups = n - narrowTies(q.Tie, q.Index, ra[0].rank)
	return nil
}

// narrowTies is the tie pass of a refinement: neighbours k and k+1 of idx
// that tied (tie[k]) still tie when they share a rank. It rewrites every
// tie[k] and returns how many remain set. Whether two neighbours share a rank
// is a coin flip on most data, so the pass decides it without a branch.
func narrowTies(tie []bool, idx []int32, rank []int32) (ties int) {
	if len(tie) == 0 {
		return 0
	}
	last := rank[idx[0]]
	for k, i := range idx[1 : len(tie)+1] {
		rk, was := rank[i], tie[k] // both loaded first: no branch guards a load
		t := rk == last && was
		tie[k] = t
		if t {
			ties++
		}
		last = rk
	}
	return ties
}

// Stats reports cache effectiveness: partitions retained (prefixes nobody
// asked for included), and the hits and misses of the contexts asked for.
func (c *SortCache) Stats() (size int, hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.hits, c.misses
}
