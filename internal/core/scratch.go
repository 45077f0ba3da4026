package core

import (
	"bytes"
	"runtime"
	"sync"
	"unsafe"
)

// Scratch is every buffer a discovery request reuses (see the package
// comment): the request body and integer cells, its relation's rank views,
// the sort scratch, its SortCache whole, and discover's run block.
type Scratch struct {
	Body  bytes.Buffer // the request's bytes; its integer cells are cut by Ints
	cells arena[int64]

	mu       sync.Mutex
	rel      *Relation // whose rank views the scratch holds
	released bool
	views    arena[colRanks]
	blocks   arena[int32] // the views' ranks and bucket offsets
	sorts    []*sortScratch
	cache    SortCache
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
		return &Scratch{cache: SortCache{byHash: make(map[uint64]*cachedPartition)}}
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
// from then on, its cells' and views' arenas are reset, nothing cut from it
// may be used, and it is kept for the next taker, in place of the longest
// kept when the free list is full, unless it holds more than maxRetained. A
// second Release does nothing.
func (s *Scratch) Release() {
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return
	}
	s.released = true
	if s.rel != nil {
		s.rel.views.Store(&released)
		s.rel = nil
	}
	s.cells.reset(-1 << 62)
	s.views.reset(colRanks{})
	s.blocks.reset(-1)
	c := &s.cache
	size := s.Body.Cap() + s.cells.bytes() + s.runBytes + s.views.bytes() + s.blocks.bytes() +
		c.entries.bytes() + c.keys.bytes() + c.index.bytes() + c.tie.bytes()
	for _, o := range s.sorts {
		size += 4*(cap(o.a)+cap(o.b)+cap(o.next)) + 8*cap(o.ints) + cap(o.tie)
	}
	if ScratchCheck {
		fill(s.Body.Bytes(), '!')
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

// Ints cuts n integer cells from the scratch, which its Release takes back;
// the contents are unspecified.
func (s *Scratch) Ints(n int) []int64 {
	return s.cells.cut(n)
}

// NewRelationColumns is core.NewRelationColumns for a relation whose rank
// views are cut from the scratch, whose ordered work reuses it, and which
// the scratch's Release releases.
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

// takeSort pops a free sort scratch, or makes one: a sort scratch lives for
// one call, and concurrent sorters each hold their own.
func (s *Scratch) takeSort() *sortScratch {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.sorts)
	if n == 0 {
		return new(sortScratch)
	}
	o := s.sorts[n-1]
	s.sorts = s.sorts[:n-1]
	return o
}

// giveSort returns a sort scratch; in the scratchcheck build it is poisoned
// first, so that one given back while still read shows.
func (s *Scratch) giveSort(o *sortScratch) {
	if ScratchCheck {
		fill(o.a, -1)
		fill(o.b, -1)
		fill(o.next, -1)
		fill(o.ints, -1)
		fill(o.tie, true)
	}
	s.mu.Lock()
	s.sorts = append(s.sorts, o)
	s.mu.Unlock()
}

// arena is a bump allocator: cut hands out the next n elements of its slab,
// starting a slab as large as all cut so far when they do not fit. Its owner
// resets it once no cut is used; a reset after cuts that outgrew the slab
// makes one of exactly their size, so a warm arena cuts without allocating.
type arena[T any] struct {
	slab []T
	off  int // the elements cut from slab
	used int // the elements cut since the last reset
}

// cut returns the next n elements, contents unspecified.
func (a *arena[T]) cut(n int) []T {
	if a.off+n > len(a.slab) {
		a.slab, a.off = make([]T, max(n, a.used)), 0
	}
	s := a.slab[a.off : a.off+n : a.off+n]
	a.off += n
	a.used += n
	return s
}

// reset takes back every cut. In the scratchcheck build it fills the slab
// with poison first, so that whatever still reads a cut reads garbage.
func (a *arena[T]) reset(poison T) {
	if ScratchCheck {
		fill(a.slab, poison)
	}
	if a.used > len(a.slab) {
		a.slab = make([]T, a.used)
	}
	a.off, a.used = 0, 0
}

// bytes is the size of the arena's slab.
func (a *arena[T]) bytes() int {
	var zero T
	return len(a.slab) * int(unsafe.Sizeof(zero))
}

// fill overwrites buf with v.
func fill[T any](buf []T, v T) {
	for i := range buf {
		buf[i] = v
	}
}
