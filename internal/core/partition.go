package core

import (
	"fmt"
	"slices"
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
	p := &SortedPartition{Context: x.Clone(), Index: make([]int32, r.n), Tie: make([]bool, max(r.n-1, 0))}
	sc, s := r.sorter()
	defer r.doneSorting(sc, s)
	r.sortInto(p, cols, s)
	return p, nil
}

// sortInto sorts the relation by the rank columns into p's Index and Tie,
// sized for the relation — fresh ones, or cut from a SortCache's arenas — on
// the sort scratch s. One column is a single counting pass: rows 0..n-1 are
// dealt into the column's rank buckets, so ties stay in row order, and every
// row but a bucket's last ties with its successor.
func (r *Relation) sortInto(p *SortedPartition, cols []*colRanks, s *sortScratch) {
	if r.n == 0 {
		return
	}
	if len(cols) == 1 {
		c := cols[0]
		s.next = append(s.next[:0], c.start...)
		for i, rk := range c.rank {
			p.Index[s.next[rk]] = int32(i)
			s.next[rk]++
		}
		for k := range p.Tie {
			p.Tie[k] = true
		}
		for _, end := range c.start[1 : len(c.start)-1] {
			p.Tie[end-1] = false
		}
		p.Groups = len(c.start) - 1
		return
	}
	copy(p.Index, s.order(r.n, cols))
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
	k := firstViolation(p.Index, p.Tie, ry)
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
// firstViolation returns the first k at which the rows idx[k] and idx[k+1]
// are misordered by the rank columns ry, -1 when there is none: the scan of
// scan1, scan2, scan3 or scanN that fits ry.
func firstViolation(idx []int32, tie []bool, ry []*colRanks) int {
	switch len(ry) {
	case 1:
		return scan1(idx, tie, ry[0].rank)
	case 2:
		return scan2(idx, tie, ry[0].rank, ry[1].rank)
	case 3:
		return scan3(idx, tie, ry[0].rank, ry[1].rank, ry[2].rank)
	default:
		return scanN(idx, tie, ry)
	}
}

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
// no name looked up and no string built.
//
// Hits and misses count the contexts callers asked Get, GetCols or
// CheckGroup for — a context's first request is a miss, every later one a
// hit — whatever that took: a context CheckGroup decided on a prefix of its
// order without building it counts as asked all the same, a prefix retained
// on the way to a longer context is neither, and when it is asked for itself
// its first request is still a miss.
//
// A cache is kept whole with a Scratch — the relation's, or one taken from
// the free list — and cuts its entries, keys and partitions' Index and Tie
// from arenas of its own, which Release resets before the relation's own.
type SortCache struct {
	r  *Relation // nil while the cache is not in use
	sc *Scratch

	mu         sync.Mutex
	byHash     map[uint64]*cachedPartition // by colsHash; colliding contexts chain through next
	entries    arena[cachedPartition]
	keys       arena[int]
	index      arena[int32]
	tie        arena[bool]
	partitions int // the entries that are built

	hits, misses uint64
	kernel       KernelStats
	// the relation's rank-view counts when the cache was made
	views, rows, compared uint64
}

// KernelStats counts the physical work of discovery's kernels, where
// discover.PipelineStats counts the logical: what the rank kernel and the
// decoder did to answer what was asked. Each count is taken once per call,
// from lengths the code already holds, and only for work whose result was
// published — a concurrent miss's losing copy and a rank view that lost its
// race are not counted — so the counts of a run depend on its input alone,
// not on how its workers interleaved.
type KernelStats struct {
	RefineRows uint64 // rows dealt by refine into the classes of a prefix
	TieRows    uint64 // rows through refine's tie pass
	SortedRows uint64 // rows of the contexts sorted from scratch: the empty and one-attribute ones
	// ProbeDecided counts the contexts a probe decided on a prefix of their
	// order, which were not refined; ProbeRows the rows every probe placed.
	ProbeDecided uint64
	ProbeRows    uint64
	// ComparedRows counts the rows a kernel ordered with a comparison sort,
	// where every other order comes from a counting sort over rank views:
	// the rows of a probe's classes sorted by key, and of the rank views
	// sorted by value.
	ComparedRows uint64
	ScanPairs    uint64 // adjacent pairs a data check compared
	RankViews    uint64 // rank views built
	RankRows     uint64 // rows of the rank views built
	// The decoder's: cells of a /discover body, by the path that read them.
	LoopCells uint64 // by the integer-row loop
	CellCells uint64 // one call of the cell decoder each
}

// Add folds o's counts into k's.
func (k *KernelStats) Add(o KernelStats) {
	k.RefineRows += o.RefineRows
	k.TieRows += o.TieRows
	k.SortedRows += o.SortedRows
	k.ProbeDecided += o.ProbeDecided
	k.ProbeRows += o.ProbeRows
	k.ComparedRows += o.ComparedRows
	k.ScanPairs += o.ScanPairs
	k.RankViews += o.RankViews
	k.RankRows += o.RankRows
	k.LoopCells += o.LoopCells
	k.CellCells += o.CellCells
}

// cachedPartition is a context of the cache: its partition once built
// (built) and whether a caller has asked for it yet. A context CheckGroup
// decided on a prefix of its order is asked and not built; noProbe says its
// group was answered over its whole order once, so that CheckGroup goes
// there directly.
type cachedPartition struct {
	p       SortedPartition
	built   bool
	asked   bool
	noProbe bool
	key     []int            // the context, as column positions
	next    *cachedPartition // the next context of the same colsHash
}

// NewSortCache returns a cache over r: the one kept with the scratch r was
// built on, or, when r was built on none or that cache is in use, the one of
// a scratch taken from the free list, which Release gives back.
func NewSortCache(r *Relation) *SortCache {
	sc := r.sc
	if sc == nil || r.views.Load() == &released || !sc.cache.claim(r, sc) {
		sc = TakeScratch()
		sc.cache.claim(r, sc)
	}
	return &sc.cache
}

// claim makes the cache, kept with sc, one over r unless it is in use.
func (c *SortCache) claim(r *Relation, sc *Scratch) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.r != nil {
		return false
	}
	c.r, c.sc, c.hits, c.misses, c.kernel = r, sc, 0, 0, KernelStats{}
	c.views, c.rows, c.compared = r.viewsBuilt.Load(), r.viewRows.Load(), r.viewCompared.Load()
	return true
}

// colsHash hashes a context's column positions (FNV-1a).
func colsHash(x []int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range x {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// find returns the entry of the context x, whose colsHash is h; c.mu is held.
func (c *SortCache) find(h uint64, x []int) *cachedPartition {
	for e := c.byHash[h]; e != nil; e = e.next {
		if slices.Equal(e.key, x) {
			return e
		}
	}
	return nil
}

// insert files an unbuilt entry, with its key, for the context x of
// colsHash h; c.mu is held.
func (c *SortCache) insert(h uint64, x []int) *cachedPartition {
	e := &c.entries.cut(1)[0]
	*e = cachedPartition{key: c.keys.cut(len(x)), next: c.byHash[h]}
	copy(e.key, x)
	c.byHash[h] = e
	return e
}

// entry returns the context x's entry, filing an unbuilt one when there is
// none, and counts x as asked when asked is set: a miss on its first ask, a
// hit on every later one. c.mu is held.
func (c *SortCache) entry(x []int, asked bool) *cachedPartition {
	h := colsHash(x)
	e := c.find(h, x)
	if e == nil {
		e = c.insert(h, x)
	}
	if asked {
		if e.asked {
			c.hits++
		} else {
			c.misses++
		}
		e.asked = true
	}
	return e
}

// arrays cuts a partition's Index and Tie from the cache's arenas.
func (c *SortCache) arrays() ([]int32, []bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.index.cut(c.r.n), c.tie.cut(max(c.r.n-1, 0))
}

// Kernel reports the physical work of the cache's partitions and checks so
// far, and the rank views the relation built while the cache lived.
func (c *SortCache) Kernel() KernelStats {
	c.mu.Lock()
	k := c.kernel
	c.mu.Unlock()
	k.RankViews, k.RankRows = c.r.viewsBuilt.Load()-c.views, c.r.viewRows.Load()-c.rows
	k.ComparedRows += c.r.viewCompared.Load() - c.compared
	return k
}

// CheckGroup answers a context group, the unit of a discovery level's work:
// kinds[i] is how the rows falsify the OD from the context x to the columns
// ys[i] — zero when it holds — as CheckCols reports it over x's partition.
// x counts as asked for once, a hit or a miss as GetCols counts it, and
// every position must be in the schema.
//
// A context X·A is first probed: the survivors are checked on a prefix of
// its order, built from X's partition (see probe), and the whole relation is
// refined only if some candidate survives the prefix. The first violation a
// scan finds in the prefix is the first in the whole order, so the kinds are
// CheckCols' either way. A context decided on the prefix stays asked and
// unbuilt, and is probed again when asked again; once a group of a context
// was answered over its whole order, the context is not probed again. That
// is decided by the context's own asks alone, so which contexts are probed
// does not depend on what concurrent groups built. It allocates nothing once
// the cache and its scratch are warm.
func (c *SortCache) CheckGroup(x []int, ys [][]int, kinds []ViolationKind) error {
	if err := c.inSchema(x); err != nil {
		return err
	}
	c.mu.Lock()
	e := c.entry(x, true)
	probe := !e.noProbe && len(x) >= 2
	c.mu.Unlock()

	clear(kinds[:len(ys)])
	var cost KernelStats
	m := 0 // the rows of the order already scanned clean for every undecided candidate
	if probe {
		var decided bool
		var err error
		if m, decided, err = c.probe(x, ys, kinds, &cost); err != nil {
			return err
		}
		if decided {
			cost.ProbeDecided = 1
			c.mu.Lock()
			c.kernel.Add(cost)
			c.mu.Unlock()
			return nil
		}
	}
	p, err := c.get(x, false)
	if err != nil {
		return err
	}
	// The probed prefix is the order's first m rows: a scan of the rest
	// starts at its last row.
	from := max(m-1, 0)
	if _, err := c.scanUndecided(p.Index[from:], p.Tie[min(from, len(p.Tie)):], ys, kinds, &cost); err != nil {
		return err
	}
	c.mu.Lock()
	e.noProbe = true
	c.kernel.Add(cost)
	c.mu.Unlock()
	return nil
}

// scanUndecided scans each right-hand side of ys not yet refuted (kinds[i]
// zero) over the order idx with ties tie, writes the kind of the first
// violation it finds — a split where the pair ties, a swap where it does
// not — counts the pairs it compared into cost, and returns how many are
// still unrefuted.
func (c *SortCache) scanUndecided(idx []int32, tie []bool, ys [][]int, kinds []ViolationKind, cost *KernelStats) (left int, err error) {
	for i, y := range ys {
		if kinds[i] != 0 {
			continue
		}
		var onStack [8]*colRanks
		ry, err := c.r.ranksAt(onStack[:0], y)
		if err != nil {
			return 0, err
		}
		k := firstViolation(idx, tie, ry)
		if k < 0 {
			cost.ScanPairs += uint64(max(len(idx)-1, 0))
			left++
			continue
		}
		cost.ScanPairs += uint64(k + 1)
		kinds[i] = Swap
		if tie[k] {
			kinds[i] = Split
		}
	}
	return left, nil
}

// The probe's bounds: it places at least probeFirst rows at first and four
// times as many at each step after, and never more than a 16th of the
// relation, so that a context whose candidates survive their prefix costs
// its refinement and a 16th more.
const (
	probeFirst  = 32
	probeGrowth = 4
	probeShare  = 16
)

// probe checks the right-hand sides ys of the context x = X·A on growing
// prefixes of x's order, writing into kinds the violation each prefix shows
// (refuted candidates stay decided), and reports how many of the order's
// rows it placed and whether every candidate was refuted. A prefix is whole
// classes of X, taken in X's order from X's partition, each sorted by A's
// rank with ties in row order — exactly the order refine deals them into —
// and neighbours tie on X·A when they are in one class and share A's rank.
// So the prefix and its ties are the first rows of x's order and their ties,
// and a scan's first violation in the prefix is the first in the order.
// layClasses lays the classes out, sorting each by counting or, when it has
// fewer rows than A has values, by comparing.
//
// A prefix grows class by class to probeFirst rows, then by probeGrowth,
// never past n/probeShare rows; the probe gives up when a step can add no
// class. It places nothing for a context whose refinement would share X's
// arrays — every class of X one row, or A constant — which costs nothing to
// build. Its buffers are the sort scratch's.
func (c *SortCache) probe(x []int, ys [][]int, kinds []ViolationKind, cost *KernelStats) (m int, decided bool, err error) {
	px, err := c.get(x[:len(x)-1], false)
	if err != nil {
		return 0, false, err
	}
	var one [1]*colRanks
	ra, err := c.r.ranksAt(one[:0], x[len(x)-1:])
	if err != nil {
		return 0, false, err
	}
	n, card := c.r.n, len(ra[0].start)-1
	if card <= 1 || px.Groups == n {
		return 0, false, nil
	}
	limit := n / probeShare
	s := c.sc.takeSort()
	defer c.sc.giveSort(s)
	s.a, s.tie, s.ints, s.next = sized(s.a, limit), sized(s.tie, limit), sized(s.ints, limit), sized(s.next, card)
	left := len(ys)
	for want := probeFirst; left > 0; want *= probeGrowth {
		end := layClasses(px, ra[0], m, min(want, limit), limit, s, cost)
		if end == m {
			break // no whole class fits
		}
		cost.ProbeRows += uint64(end - m)
		from := max(m-1, 0)
		if left, err = c.scanUndecided(s.a[from:end], s.tie[from:end], ys, kinds, cost); err != nil {
			return 0, false, err
		}
		m = end
		if end >= limit {
			break
		}
	}
	return m, left == 0, nil
}

// layClasses lays the classes of px that start at row end, in px's order,
// into the same rows of s.a and s.tie while fewer than want rows are laid
// and the next class ends by row limit, and returns where the last one
// ends. Each class is ordered by the rank view a with ties in row order, and
// its neighbours tie when they share a's rank; the last row of each is no
// tie. s.a, s.tie and s.ints hold limit rows, s.next a's cardinality.
//
// A class with at least as many rows as a has values is sorted by counting:
// one pass counts its rows per rank, and a second, over the class in px's
// order, deals them into the rank buckets. Every partition of the cache
// keeps a class's rows in row order, so the pass is stable and leaves a's
// ties in row order. A smaller class, for which clearing a's buckets would
// cost more than the rows, is sorted by its rank<<32|row keys, and its rows
// are counted into cost as compared.
func layClasses(px *SortedPartition, a *colRanks, end, want, limit int, s *sortScratch, cost *KernelStats) int {
	idx, tie, keys, at := s.a, s.tie, s.ints, s.next
	n, rank, card := len(px.Index), a.rank, len(a.start)-1
	for end < want {
		next := end + 1 // the end of the class starting at end
		for next < n && px.Tie[next-1] {
			next++
		}
		if next > limit {
			break
		}
		if class := px.Index[end:next]; len(class) >= card {
			clear(at)
			for _, i := range class {
				at[rank[i]]++
			}
			sum := int32(end)
			for v, count := range at {
				at[v] = sum
				sum += count
			}
			for _, i := range class {
				idx[at[rank[i]]] = i
				at[rank[i]]++
			}
		} else {
			for k, i := range class {
				keys[end+k] = int64(rank[i])<<32 | int64(i)
			}
			slices.Sort(keys[end:next])
			for k := end; k < next; k++ {
				idx[k] = int32(keys[k])
			}
			cost.ComparedRows += uint64(len(class))
		}
		for k := end + 1; k < next; k++ {
			tie[k-1] = rank[idx[k-1]] == rank[idx[k]]
		}
		tie[next-1] = false // the next class's first row is no tie
		end = next
	}
	return end
}

// Scratch returns the scratch the cache's partitions are cut from, for a
// caller that keeps state of its own with it for as long as the cache lives
// (discover's run block).
func (c *SortCache) Scratch() *Scratch { return c.sc }

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
	if err := c.inSchema(x); err != nil {
		return nil, err
	}
	return c.get(x, true)
}

// inSchema fails on the first position of x outside the relation's schema.
func (c *SortCache) inSchema(x []int) error {
	for _, col := range x {
		if col < 0 || col >= len(c.r.attrs) {
			return fmt.Errorf("core: column %d not in schema %v", col, c.r.attrs)
		}
	}
	return nil
}

// get is GetCols for a caller's context (asked) and for the prefix a longer
// context is refined from (not asked, and so not counted). The positions are
// in range.
func (c *SortCache) get(x []int, asked bool) (*SortedPartition, error) {
	c.mu.Lock()
	e := c.entry(x, asked)
	built := e.built
	c.mu.Unlock()
	if built {
		return &e.p, nil
	}
	var p SortedPartition
	var cost KernelStats
	if len(x) <= 1 {
		var one [1]*colRanks
		cols, err := c.r.ranksAt(one[:0], x)
		if err != nil {
			return nil, err
		}
		p.Index, p.Tie = c.arrays()
		s := c.sc.takeSort()
		c.r.sortInto(&p, cols, s)
		c.sc.giveSort(s)
		cost.SortedRows = uint64(c.r.n)
	} else if err := c.refine(&p, x, &cost); err != nil {
		return nil, err
	}
	c.mu.Lock()
	// A concurrent miss may have won the publish: then converge on it. The
	// losing copy, which nobody else has seen, stays cut until Release.
	if !e.built {
		e.p, e.built = p, true
		c.partitions++
		c.kernel.Add(cost)
	}
	c.mu.Unlock()
	return &e.p, nil
}

// Release empties the cache's table and resets its arenas, and a scratch
// the cache was taken with from the free list goes back to it. Neither the
// cache nor any partition it returned may be used after; releasing again
// does nothing.
func (c *SortCache) Release() {
	c.mu.Lock()
	r := c.r
	if r != nil {
		c.r, c.partitions = nil, 0
		clear(c.byHash)
		c.entries.reset(cachedPartition{})
		c.keys.reset(-1)
		c.index.reset(-1)
		c.tie.reset(true)
	}
	c.mu.Unlock()
	if r != nil && c.sc != r.sc {
		c.sc.Release()
	}
}

// refine builds into q the partition of the context x = X·A from the
// partitions of X and of [A], both through the cache: the order of X·A is the
// order of X with each class of X ordered, stably, by A, and two neighbours
// tie on X·A when they tie on X and on A — the partition refinement of
// set-based OD discovery, in place of a sort of the whole relation by every
// attribute of x. It is the last pass of that sort alone: the rows, taken in
// A's order, are dealt into the classes of X, so a class fills in A's order
// with ties in row order — which is how every partition here orders its ties.
// Where A cannot reorder anything — it is constant, or every class of X is
// one row — the partition shares X's arrays; otherwise it is built in arrays
// cut from the cache's arenas. The work is counted into cost.
func (c *SortCache) refine(q *SortedPartition, x []int, cost *KernelStats) error {
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
	n := c.r.n
	q.Index, q.Tie, q.Groups = px.Index, px.Tie, px.Groups
	if pa.Groups <= 1 || px.Groups == n {
		return nil
	}
	s := c.sc.takeSort()
	defer c.sc.giveSort(s)
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
	q.Index, q.Tie = c.arrays()
	copy(q.Tie, px.Tie)
	for _, i := range pa.Index {
		g := class[i]
		q.Index[next[g]] = i
		next[g]++
	}
	q.Groups = n - narrowTies(q.Tie, q.Index, ra[0].rank)
	cost.RefineRows, cost.TieRows = uint64(n), uint64(len(q.Tie))
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
// asked for included, contexts decided on a prefix of their order not), and
// the hits and misses of the contexts asked for.
func (c *SortCache) Stats() (size int, hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.partitions, c.hits, c.misses
}
