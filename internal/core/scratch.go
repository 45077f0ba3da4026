package core

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
)

// Scratch is every buffer a discovery request reuses (see the package
// comment): the request body and integer cells, its relation's rank views,
// partition arrays, sort scratch and SortCache table, and discover's run
// block. Buffers are taken and given back under its one mutex.
type Scratch struct {
	Body  bytes.Buffer // the request's bytes; its integer cells come from Ints
	cells []int64

	mu       sync.Mutex
	rel      *Relation // whose rank views the scratch holds
	released bool
	ranks    []*colRanks
	arrays   []*partitionArrays
	sorts    []*sortScratch
	table    *cacheTable
	run      any // discover's; core only holds it
	runBytes int
}

// maxRetained is the most a released scratch may hold and still be kept for
// the next taker, 4 MiB: one past it, which only a relation of some 100,000
// cells fills, is left to the collector rather than pinning its size.
const maxRetained = 4 << 20

// free is the released scratches kept for the next takers, at most
// GOMAXPROCS of them: the last released, which the work going on has warmed.
var free struct {
	mu   sync.Mutex
	list []*Scratch
}

// TakeScratch returns a released scratch, or a new one when none is kept.
func TakeScratch() *Scratch {
	free.mu.Lock()
	defer free.mu.Unlock()
	n := len(free.list)
	if n == 0 {
		return new(Scratch)
	}
	s := free.list[n-1]
	free.list = free.list[:n-1]
	if ScratchCheck && !s.released {
		panic("core: a scratch handed out twice")
	}
	s.released = false
	return s
}

// Release ends the scratch's use: its relation's ordered operations fail
// from then on, nothing cut from it may be used, and it is kept for the next
// taker, in place of the longest kept when the free list is full, unless it
// holds more than maxRetained. A second Release does nothing.
func (s *Scratch) Release() {
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return
	}
	s.released = true
	if s.rel != nil {
		if views := s.rel.views.Swap(&released); views != nil && views != &released {
			for i := range *views {
				if cr := (*views)[i].Load(); cr != nil {
					s.ranks = append(s.ranks, cr)
				}
			}
		}
		s.rel = nil
	}
	size := s.Body.Cap() + 8*cap(s.cells) + s.runBytes
	for _, cr := range s.ranks {
		size += 4 * cap(cr.block)
		cr.poison()
	}
	for _, a := range s.arrays {
		size += 5 * cap(a.index)
		a.poison()
	}
	for _, o := range s.sorts {
		size += 4*(cap(o.a)+cap(o.b)+cap(o.next)) + 8*cap(o.ints) + cap(o.tie)
		o.poison()
	}
	if ScratchCheck {
		fill(s.Body.Bytes(), '!')
		fill(s.cells, -1<<62)
	}
	s.mu.Unlock()
	if size > maxRetained {
		return
	}
	free.mu.Lock()
	defer free.mu.Unlock()
	if n := len(free.list); n < runtime.GOMAXPROCS(0) {
		free.list = append(free.list, s)
	} else {
		copy(free.list, free.list[1:])
		free.list[n-1] = s
	}
}

// Ints returns n integer cells, the scratch's block reused whenever it is
// large enough; the contents are unspecified.
func (s *Scratch) Ints(n int) []int64 {
	s.cells = sized(s.cells, n)
	return s.cells
}

// NewRelationColumns is core.NewRelationColumns for a relation whose ordered
// work reuses the scratch and which the scratch's Release releases.
func (s *Scratch) NewRelationColumns(attrs List, n int, cols []Column) (*Relation, error) {
	r, err := NewRelationColumns(attrs, n, cols)
	if err == nil {
		s.mu.Lock()
		s.rel = r
		s.mu.Unlock()
		r.sc = s
	}
	return r, err
}

// SwapRun leaves discover's run block, of size bytes, with the scratch and
// returns the one it held, nil if none: a run takes the block with
// SwapRun(nil, 0) and gives it back when it ends.
func (s *Scratch) SwapRun(run any, size int) (held any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	held, s.run, s.runBytes = s.run, run, size
	return held
}

// take pops a free buffer of the scratch's, making eight at once when there
// is none: a cold scratch fills in a few allocations.
func take[T any](s *Scratch, free *[]*T) *T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(*free) == 0 {
		batch := make([]T, 8)
		for i := range batch {
			*free = append(*free, &batch[i])
		}
	}
	v := (*free)[len(*free)-1]
	*free = (*free)[:len(*free)-1]
	return v
}

// give returns a buffer to the scratch; in the scratchcheck build it is
// poisoned first, so that a buffer given back while still read shows.
func give[T any, P interface {
	*T
	poison()
}](s *Scratch, free *[]*T, v P) {
	v.poison()
	s.mu.Lock()
	*free = append(*free, v)
	s.mu.Unlock()
}

// fill overwrites buf with v.
func fill[T any](buf []T, v T) {
	for i := range buf {
		buf[i] = v
	}
}

// The poison methods overwrite a buffer in the scratchcheck build, so that
// whatever still reads it after it was given back reads garbage.
func (cr *colRanks) poison() {
	if ScratchCheck {
		fill(cr.block, -1)
	}
}

func (a *partitionArrays) poison() {
	if ScratchCheck {
		fill(a.index, -1)
		fill(a.tie, true)
	}
}

func (o *sortScratch) poison() {
	if ScratchCheck {
		fill(o.a, -1)
		fill(o.b, -1)
		fill(o.next, -1)
		fill(o.ints, -1)
		fill(o.tie, true)
	}
}

// cacheTable is a SortCache's partitions by context, kept with the scratch
// from one cache to the next — map buckets, entries and keys — so that a warm
// cache allocates neither an entry nor a key.
type cacheTable struct {
	byHash     map[uint64]*cachedPartition // by colsHash; colliding contexts chain through next
	entries    []*cachedPartition          // the first used are the cache's
	used       int
	partitions int // the used entries that are built
}

// takeTable hands a SortCache the scratch's table, or a new one when the
// scratch holds none.
func (s *Scratch) takeTable() (t *cacheTable) {
	s.mu.Lock()
	t, s.table = s.table, nil
	s.mu.Unlock()
	if t == nil {
		t = &cacheTable{byHash: make(map[uint64]*cachedPartition)}
	}
	return t
}

// giveTable takes a released cache's table back, with the arrays its
// partitions own, each once: a partition sharing its prefix's owns none.
func (s *Scratch) giveTable(t *cacheTable) {
	for _, e := range t.entries[:t.used] {
		if e.arr != nil {
			give(s, &s.arrays, e.arr)
		}
	}
	t.used, t.partitions = 0, 0
	clear(t.byHash)
	s.mu.Lock()
	if s.table == nil {
		s.table = t
	}
	s.mu.Unlock()
}

// colsHash hashes a context's column positions (FNV-1a).
func colsHash(x []int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range x {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func (t *cacheTable) find(h uint64, x []int) *cachedPartition {
	for e := t.byHash[h]; e != nil; e = e.next {
		if slices.Equal(e.key, x) {
			return e
		}
	}
	return nil
}

// insert files built under the context x, in an entry of the table's own.
// Entries are made as many at a time as the table holds, each with room for
// a key of four positions.
func (t *cacheTable) insert(h uint64, x []int, built cachedPartition) *cachedPartition {
	if t.used == len(t.entries) {
		batch, keys := make([]cachedPartition, max(t.used, 8)), make([]int, 4*max(t.used, 8))
		for i := range batch {
			batch[i].key = keys[4*i : 4*i : 4*i+4]
			t.entries = append(t.entries, &batch[i])
		}
	}
	e := t.entries[t.used]
	t.used++
	if built.built {
		t.partitions++
	}
	built.key, built.next = append(e.key[:0], x...), t.byHash[h]
	*e = built
	t.byHash[h] = e
	return e
}
