package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSortPartitionOn is one context of a discovery run on the
// benchmark's 4,000 x 6 random relation: a two-attribute counting sort plus
// the tie pass, on rank views built before the timer starts.
func BenchmarkSortPartitionOn(b *testing.B) {
	r := RandRelation(rand.New(rand.NewSource(1)), L("r0", "r1", "r2", "r3", "r4", "r5"), 4000, 50)
	x := L("r3", "r1")
	if _, err := r.SortPartitionOn(x); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := r.SortPartitionOn(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankViewBuild is the price of the views themselves: the first
// ordered use of each of the six columns of a fresh 4,000-row relation.
func BenchmarkRankViewBuild(b *testing.B) {
	r := RandRelation(rand.New(rand.NewSource(1)), L("r0", "r1", "r2", "r3", "r4", "r5"), 4000, 50)
	b.ReportAllocs()
	for b.Loop() {
		r.views.Store(nil)
		if _, _, err := r.ranksOn(r.attrs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSatisfiesAllTwoRows is the shape bench/ validates a refutation
// witness with: a fresh two-row relation over a chain schema's 72 attributes
// checked against its 60 declared ODs. The rank views must not make it dearer
// than the comparator sort was.
func BenchmarkSatisfiesAllTwoRows(b *testing.B) {
	var attrs List
	var ods []OD
	for c := 0; c < 12; c++ {
		for i := 0; i < 6; i++ {
			attrs = append(attrs, Attribute(fmt.Sprintf("c%02d_%d", c, i)))
			if i > 0 {
				ods = append(ods, NewOD(attrs[len(attrs)-2:len(attrs)-1], attrs[len(attrs)-1:]))
			}
		}
	}
	row0, row1 := make([]int64, len(attrs)), make([]int64, len(attrs))
	for i := 18; i < 24; i++ {
		row1[i] = 1 // one chain ascends, the rest tie
	}
	b.ReportAllocs()
	for b.Loop() {
		r := MustRelation(attrs)
		if err := r.AddIntRow(row0...); err != nil {
			b.Fatal(err)
		}
		if err := r.AddIntRow(row1...); err != nil {
			b.Fatal(err)
		}
		if ok, _, err := r.SatisfiesAll(ods); err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkSortCacheRefine is a discovery run's refinement traffic on the
// same relation: each iteration refines all 30 two-attribute contexts from a
// SortCache that already holds the six one-attribute ones. The refinements'
// arrays are cut from arenas of their own, which each iteration resets as a
// released run would, while the one-attribute partitions keep theirs. One
// context over and over would let the branch predictor learn its ties.
func BenchmarkSortCacheRefine(b *testing.B) {
	attrs := L("r0", "r1", "r2", "r3", "r4", "r5")
	r := RandRelation(rand.New(rand.NewSource(1)), attrs, 4000, 50)
	c := NewSortCache(r)
	var pairs [][]int
	for a := range attrs {
		if _, err := c.GetCols([]int{a}); err != nil {
			b.Fatal(err)
		}
		for z := range attrs {
			if z != a {
				pairs = append(pairs, []int{a, z})
			}
		}
	}
	c.index, c.tie = arena[int32]{}, arena[bool]{}
	var q SortedPartition
	var cost KernelStats
	refineAll := func() {
		for _, x := range pairs {
			if err := c.refine(&q, x, &cost); err != nil {
				b.Fatal(err)
			}
		}
		c.index.reset(-1)
		c.tie.reset(true)
	}
	refineAll() // grows the arenas to the 30 refinements
	b.ReportAllocs()
	for b.Loop() {
		refineAll()
	}
}

// BenchmarkSortCacheProbe is a discovery run's probe traffic on the same
// relation: each iteration asks CheckGroup for all 30 two-attribute contexts,
// each with the four one-attribute right-hand sides outside it, from a
// SortCache that already holds the six one-attribute partitions. Every group
// is refuted on a prefix of its context's order, so no context is refined
// and each is probed again at the next iteration, as a run's next level
// probes it.
func BenchmarkSortCacheProbe(b *testing.B) {
	attrs := L("r0", "r1", "r2", "r3", "r4", "r5")
	r := RandRelation(rand.New(rand.NewSource(1)), attrs, 4000, 50)
	c := NewSortCache(r)
	defer c.Release()
	type group struct {
		x  []int
		ys [][]int
	}
	var groups []group
	for a := range attrs {
		if _, err := c.GetCols([]int{a}); err != nil {
			b.Fatal(err)
		}
		for z := range attrs {
			if z == a {
				continue
			}
			g := group{x: []int{a, z}}
			for y := range attrs {
				if y != a && y != z {
					g.ys = append(g.ys, []int{y})
				}
			}
			groups = append(groups, g)
		}
	}
	kinds := make([]ViolationKind, len(attrs))
	b.ReportAllocs()
	for b.Loop() {
		for _, g := range groups {
			if err := c.CheckGroup(g.x, g.ys, kinds); err != nil {
				b.Fatal(err)
			}
		}
	}
	if k := c.Kernel(); k.RefineRows != 0 {
		b.Fatalf("a context was refined, not decided on a prefix: %+v", k)
	}
}

// BenchmarkSortOneColumn is the sorts a discovery run starts from: the six
// one-attribute partitions of the same relation, built on a fresh SortCache
// each iteration from rank views built before the timer starts.
func BenchmarkSortOneColumn(b *testing.B) {
	attrs := L("r0", "r1", "r2", "r3", "r4", "r5")
	r := RandRelation(rand.New(rand.NewSource(1)), attrs, 4000, 50)
	if _, _, err := r.ranksOn(attrs, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		c := NewSortCache(r)
		for a := range attrs {
			if _, err := c.GetCols([]int{a}); err != nil {
				b.Fatal(err)
			}
		}
		c.Release()
	}
}
