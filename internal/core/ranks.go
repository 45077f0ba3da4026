package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
)

// colRanks is one column's rank view: rank[i] is the dense rank of row i's
// cell among the column's distinct values in Value.Compare order, so two
// cells of the column compare exactly as their ranks do. start[k] counts the
// rows ranked below k — the counting sort's bucket offsets, which depend on
// the column alone and never on the order being refined; len(start)-1 is the
// column's cardinality. Both are cut from one block: a colRanks is immutable
// from when it is built until its relation's Release.
type colRanks struct {
	rank  []int32
	start []int32
}

// released is what a relation's views point to after Release.
var released []atomic.Pointer[colRanks]

var errReleased = errors.New("core: relation used after Release")

// ranksOf returns column c's rank view, building it on first use; the
// relation must not be released. Concurrent first uses may each build the
// view; one is published and all callers converge on it, and the losing copy,
// which nobody has seen, is left to the collector.
func (r *Relation) ranksOf(c int) *colRanks {
	views := r.views.Load()
	if views == nil {
		fresh := make([]atomic.Pointer[colRanks], len(r.attrs))
		r.views.CompareAndSwap(nil, &fresh)
		views = r.views.Load()
	}
	v := &(*views)[c]
	if cr := v.Load(); cr != nil {
		return cr
	}
	cr, compared := r.buildRanks(c)
	if v.CompareAndSwap(nil, cr) {
		r.viewsBuilt.Add(1)
		r.viewRows.Add(uint64(r.n))
		r.viewCompared.Add(uint64(compared))
	}
	return v.Load()
}

// sorter lends an ordered operation a sort scratch, which doneSorting gives
// back, from the scratch the relation was built on or from one taken from
// the free list and given back with it — so that repeated runs over a
// relation built without a scratch reuse memory too, and an idle relation
// holds nothing but its rank views.
func (r *Relation) sorter() (*Scratch, *sortScratch) {
	sc := r.sc
	if sc == nil {
		sc = TakeScratch()
	}
	return sc, sc.takeSort()
}

func (r *Relation) doneSorting(sc *Scratch, s *sortScratch) {
	sc.giveSort(s)
	if sc != r.sc {
		sc.Release()
	}
}

// Release ends the relation's ordered work, which fails from then on; cells
// stay readable. A relation built on a scratch releases the scratch, whose
// arenas the next relation ranks into; any other only marks its views
// released. A second Release does nothing. No ordered operation may run
// beside Release, and no SortedPartition of the relation may be used after.
func (r *Relation) Release() {
	if r.sc == nil || r.views.Load() == &released {
		r.views.Store(&released)
		return
	}
	r.sc.Release()
}

// ranksOn resolves the attributes of the lists x and y to their columns' rank
// views, in list order (repeats included), failing on the first attribute —
// x's before y's — the schema lacks.
func (r *Relation) ranksOn(x, y List) (rx, ry []*colRanks, err error) {
	cols, err := r.ranksInto(make([]*colRanks, 0, len(x)+len(y)), x)
	if err != nil {
		return nil, nil, err
	}
	if cols, err = r.ranksInto(cols, y); err != nil {
		return nil, nil, err
	}
	return cols[:len(x):len(x)], cols[len(x):], nil
}

// ranksInto appends the rank views of l's attributes to dst, in list order,
// failing on a released relation and on the first attribute the schema
// lacks. Every ordered operation resolves its columns here.
func (r *Relation) ranksInto(dst []*colRanks, l List) ([]*colRanks, error) {
	if r.views.Load() == &released {
		return nil, errReleased
	}
	for _, a := range l {
		c, err := r.Col(a)
		if err != nil {
			return nil, err
		}
		dst = append(dst, r.ranksOf(c))
	}
	return dst, nil
}

// ranksAt is ranksInto for columns given by schema position: no name is
// looked up, and a position outside the schema fails.
func (r *Relation) ranksAt(dst []*colRanks, cols []int) ([]*colRanks, error) {
	if r.views.Load() == &released {
		return nil, errReleased
	}
	for _, c := range cols {
		if c < 0 || c >= len(r.attrs) {
			return nil, fmt.Errorf("core: column %d not in schema %v", c, r.attrs)
		}
		dst = append(dst, r.ranksOf(c))
	}
	return dst, nil
}

// buildRanks numbers column c's distinct cells densely in Value.Compare
// order — the only place discovery's data plane still looks at values. A
// column of integers spanning less than four times the row count (surrogate
// keys, calendar parts, codes: most of what discovery sees) is ranked through
// a presence table without a comparison; any other column is sorted once,
// and its rows are the rows compared that buildRanks returns.
func (r *Relation) buildRanks(c int) (cr *colRanks, compared int) {
	n := r.n
	sc, s := r.sorter()
	defer r.doneSorting(sc, s)
	ints := r.intColumn(c, s)
	if lo, span, ok := intSpan(ints); ok && span < 4*uint64(n) {
		s.a = sized(s.a, int(span)+1)
		table := s.a
		clear(table)
		for _, v := range ints {
			table[uint64(v)-lo] = 1
		}
		card := int32(0)
		for v, present := range table {
			if present != 0 {
				table[v] = card
				card++
			}
		}
		cr = r.newColRanks(card)
		for i, v := range ints {
			cr.rank[i] = table[uint64(v)-lo]
		}
		return cr.withStarts(), 0
	}
	s.a, s.b = sized(s.a, n), sized(s.b, n)
	order, ranks := s.a, s.b
	for i := range order {
		order[i] = int32(i)
	}
	cmpCells := r.cellOrder(c, ints)
	slices.SortFunc(order, cmpCells)
	card := int32(0)
	for k, i := range order {
		if k > 0 && cmpCells(order[k-1], i) != 0 {
			card++
		}
		ranks[i] = card
	}
	if n > 0 {
		card++
	}
	cr = r.newColRanks(card)
	copy(cr.rank, ranks)
	return cr.withStarts(), n
}

// intColumn returns column c as one integer vector when every cell is an
// Int — a columnar relation's own, or gathered into the scratch from a
// relation of rows — and nil otherwise.
func (r *Relation) intColumn(c int, s *sortScratch) []int64 {
	if r.cols != nil {
		return r.cols[c].Ints
	}
	s.ints = slices.Grow(s.ints[:0], r.n)[:r.n]
	for i, row := range r.rows {
		if row[c].Kind != KindInt {
			return nil
		}
		s.ints[i] = row[c].Int
	}
	return s.ints
}

// cellOrder returns how two rows' cells of column c compare, as Value.Compare
// has it; ints is the column's intColumn.
func (r *Relation) cellOrder(c int, ints []int64) func(a, b int32) int {
	switch {
	case ints != nil:
		return func(a, b int32) int { return cmp.Compare(ints[a], ints[b]) }
	case r.cols == nil:
		rows := r.rows
		return func(a, b int32) int { return rows[a][c].Compare(rows[b][c]) }
	case r.cols[c].Floats != nil:
		floats := r.cols[c].Floats
		return func(a, b int32) int { return cmpFloat(floats[a], floats[b]) }
	default:
		strs := r.cols[c].Strs
		return func(a, b int32) int { return strings.Compare(strs[a], strs[b]) }
	}
}

// newColRanks returns the view of a column of the given cardinality, both
// arrays cut from one block: from the arenas of the scratch the relation was
// built on, whose Release resets them, or made. Only start is cleared, for
// withStarts to count into: every builder writes each rank.
func (r *Relation) newColRanks(card int32) (cr *colRanks) {
	n, sc := r.n, r.sc
	var block []int32
	if sc != nil {
		sc.mu.Lock()
		cr, block = &sc.views.cut(1)[0], sc.blocks.cut(n+int(card)+1)
		sc.mu.Unlock()
	} else {
		cr, block = new(colRanks), make([]int32, n+int(card)+1)
	}
	cr.rank, cr.start = block[:n:n], block[n:]
	clear(cr.start)
	return cr
}

// withStarts derives the bucket offsets from the filled-in ranks.
func (cr *colRanks) withStarts() *colRanks {
	for _, rk := range cr.rank {
		cr.start[rk+1]++
	}
	for k := 1; k < len(cr.start); k++ {
		cr.start[k] += cr.start[k-1]
	}
	return cr
}

// intSpan reports the smallest of the integers and the distance to the
// largest, both in two's complement so the distance cannot overflow. No
// integers — an empty column, or one that is not all Ints — have no span.
func intSpan(ints []int64) (lo, span uint64, ok bool) {
	if len(ints) == 0 {
		return 0, 0, false
	}
	minV, maxV := int64(math.MaxInt64), int64(math.MinInt64)
	for _, v := range ints {
		minV, maxV = min(minV, v), max(maxV, v)
	}
	return uint64(minV), uint64(maxV) - uint64(minV), true
}

// cmpRanks compares rows s and t lexicographically along the rank columns:
// Relation.CompareOn on integers.
func cmpRanks(cols []*colRanks, s, t int32) int {
	for _, c := range cols {
		if a, b := c.rank[s], c.rank[t]; a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// sortScratch holds the buffers of one rank sort, kept with the relation's
// Scratch: a sort allocates nothing once the scratch has warmed to the
// relation's size.
type sortScratch struct {
	a, b, next []int32
	ints       []int64 // buildRanks: an integer column gathered from rows; a probe's sort keys
	tie        []bool  // a probe's ties
}

// sized returns buf resliced to n elements, reallocated only when too small;
// the contents are unspecified.
func sized[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// order returns the row ids 0..n-1 ordered by the rank columns, most
// significant first, ties in row order: a stable least-significant-digit
// counting sort, O(len(cols)·(n + cardinality)). The result aliases the
// scratch and is valid until the scratch is reused.
func (s *sortScratch) order(n int, cols []*colRanks) []int32 {
	s.a, s.b = sized(s.a, n), sized(s.b, n)
	src, dst := s.a, s.b
	for i := range src {
		src[i] = int32(i)
	}
	for k := len(cols) - 1; k >= 0; k-- {
		c := cols[k]
		if len(c.start) <= 2 {
			continue // a constant column orders nothing
		}
		s.next = append(s.next[:0], c.start...)
		for _, i := range src {
			rk := c.rank[i]
			dst[s.next[rk]] = i
			s.next[rk]++
		}
		src, dst = dst, src
	}
	return src
}
