package core

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// TestSatisfiesWithMatchesSatisfies: for random relations and candidate ODs,
// checking against a cached sorted partition must agree with the direct
// sort-and-scan check, including the violation kind on refutation.
func TestSatisfiesWithMatchesSatisfies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	universe := L("A", "B", "C", "D")
	for trial := 0; trial < 50; trial++ {
		r := RandRelation(rng, universe, 8, 3)
		lhs := RandList(rng, universe, 2).Normalize()
		cache := NewSortCache(r)
		p, err := cache.Get(lhs)
		if err != nil {
			t.Fatal(err)
		}
		for _, rhs := range [][]Attribute{{"A"}, {"B"}, {"C", "D"}, {"D", "A"}} {
			od := NewOD(lhs, List(rhs))
			wantOK, wantV, err := r.Satisfies(od)
			if err != nil {
				t.Fatal(err)
			}
			gotOK, gotV, err := r.SatisfiesWith(od, p)
			if err != nil {
				t.Fatal(err)
			}
			if wantOK != gotOK {
				t.Fatalf("trial %d: %s: Satisfies=%v SatisfiesWith=%v\n%s", trial, od, wantOK, gotOK, r)
			}
			if !gotOK {
				if gotV.Kind != wantV.Kind {
					t.Errorf("trial %d: %s: violation kind %v vs %v", trial, od, gotV.Kind, wantV.Kind)
				}
				// The witness pair must genuinely violate the OD, under the
				// same convention Satisfies uses: splits tie on X and order
				// strictly on Y, swaps order oppositely on X and Y.
				cx, _ := r.CompareOn(gotV.S, gotV.T, od.LHS)
				cy, _ := r.CompareOn(gotV.S, gotV.T, od.RHS)
				bad := (gotV.Kind == Split && !(cx == 0 && cy < 0)) ||
					(gotV.Kind == Swap && !(cx < 0 && cy > 0))
				if bad {
					t.Errorf("trial %d: %s: witness rows %d,%d do not violate (kind=%v cx=%d cy=%d)",
						trial, od, gotV.S, gotV.T, gotV.Kind, cx, cy)
				}
			}
		}
	}
}

func TestSortPartitionGroups(t *testing.T) {
	r := MustRelation(L("A", "B"))
	r.AddIntRow(2, 1)
	r.AddIntRow(1, 2)
	r.AddIntRow(2, 3)
	r.AddIntRow(1, 4)
	p, err := r.SortPartitionOn(L("A"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Groups != 2 {
		t.Errorf("Groups = %d, want 2", p.Groups)
	}
	// Stable: ties keep insertion order. A=1 rows are 1 then 3; A=2 rows 0 then 2.
	want := []int32{1, 3, 0, 2}
	for i, w := range want {
		if p.Index[i] != w {
			t.Fatalf("Index = %v, want %v", p.Index, want)
		}
	}
	if !p.Tie[0] || p.Tie[1] || !p.Tie[2] {
		t.Errorf("Tie = %v", p.Tie)
	}

	empty := MustRelation(L("A"))
	ep, err := empty.SortPartitionOn(L("A"))
	if err != nil {
		t.Fatal(err)
	}
	if ep.Groups != 0 || len(ep.Tie) != 0 {
		t.Errorf("empty partition = %+v", ep)
	}
}

func TestSortCacheBoundsAndStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := RandRelation(rng, L("A", "B", "C"), 10, 3)
	c := NewSortCache(r)
	for _, x := range []List{L("A"), L("B"), L("C"), L("A")} {
		if _, err := c.Get(x); err != nil {
			t.Fatal(err)
		}
	}
	size, hits, misses := c.Stats()
	if size != 3 {
		t.Errorf("size = %d, want 3", size)
	}
	if hits != 1 || misses != 3 {
		t.Errorf("hits=%d misses=%d, want 1/3", hits, misses)
	}
}

// TestSatisfiesWithHoldingAllocatesNothing: a data check that finds the OD
// holding, over a cached partition, allocates nothing — the right-hand side's
// rank views are resolved into an array on the stack.
func TestSatisfiesWithHoldingAllocatesNothing(t *testing.T) {
	r := MustRelation(L("A", "B", "C"))
	for i := range 100 {
		r.AddIntRow(int64(i/10), int64(i), int64(i/5))
	}
	p, err := NewSortCache(r).Get(L("B"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rhs := range []List{L("A"), L("C", "A"), L("A", "C", "B", "A")} {
		od := NewOD(L("B"), rhs)
		allocs := testing.AllocsPerRun(100, func() {
			if holds, _, err := r.SatisfiesWith(od, p); err != nil || !holds {
				t.Fatalf("%s: holds=%v, err=%v", od, holds, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: %.0f allocations per holding check, want 0", od, allocs)
		}
	}
}

// TestSatisfiesWithRefutingAllocatesNothing: a data check that refutes the
// OD allocates nothing either, by a split or by a swap — the witness comes
// back by value, where it was one boxed Violation per refutation, and
// discovery refutes most of the candidates it checks.
func TestSatisfiesWithRefutingAllocatesNothing(t *testing.T) {
	r := MustRelation(L("A", "B", "C", "D"))
	for i := range 100 {
		r.AddIntRow(int64(i/10), int64(i), int64(i/5), int64(-i))
	}
	cache := NewSortCache(r)
	for _, tc := range []struct {
		od   OD
		kind ViolationKind
	}{
		{NewOD(L("A"), L("B")), Split},
		{NewOD(L("A"), L("C", "D")), Split},
		{NewOD(L("B"), L("D")), Swap},
		{NewOD(L("B"), L("A", "D")), Swap},
	} {
		p, err := cache.Get(tc.od.LHS)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if holds, v, err := r.SatisfiesWith(tc.od, p); err != nil || holds || v.Kind != tc.kind {
				t.Fatalf("%s: holds=%v, kind=%v, err=%v; want a %v", tc.od, holds, v.Kind, err, tc.kind)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: %.0f allocations per refuting check, want 0", tc.od, allocs)
		}
	}
}

// relationWithConstant is a random relation over A–D plus a constant column
// K, so that refining by K shares the prefix's arrays.
func relationWithConstant(rng *rand.Rand, rows, domain int) *Relation {
	r, err := NewRelationRows(L("A", "B", "C", "D", "K"), rows, func(_ int, vals []Value) error {
		for j := range 4 {
			vals[j] = Int(int64(rng.Intn(domain)))
		}
		vals[4] = Int(7)
		return nil
	})
	if err != nil {
		panic(err)
	}
	return r
}

// checkOwnership: no two partitions of the cache that have arrays of their
// own overlap, and every other built partition shares its prefix's arrays —
// so no partition's arrays are written by another's build.
func checkOwnership(t *testing.T, c *SortCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var owners []*cachedPartition
	for _, head := range c.byHash {
		for e := head; e != nil; e = e.next {
			if !e.built || len(e.p.Index) == 0 {
				continue
			}
			if k := len(e.key) - 1; k > 0 {
				prefix := c.find(colsHash(e.key[:k]), e.key[:k])
				if prefix == nil || !prefix.built {
					t.Fatalf("partition %v is built and its prefix is not", e.key)
				}
				if &e.p.Index[0] == &prefix.p.Index[0] {
					if len(e.p.Tie) > 0 && &e.p.Tie[0] != &prefix.p.Tie[0] {
						t.Fatalf("partition %v shares its prefix's Index and not its Tie", e.key)
					}
					continue
				}
			}
			for _, o := range owners {
				if overlaps(e.p.Index, o.p.Index) || overlaps(e.p.Tie, o.p.Tie) {
					t.Fatalf("partitions %v and %v, each with arrays of its own, overlap", e.key, o.key)
				}
			}
			owners = append(owners, e)
		}
	}
}

// overlaps reports whether two slices share memory.
func overlaps[T any](a, b []T) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(a[0])
	lo := func(s []T) uintptr { return uintptr(unsafe.Pointer(&s[0])) }
	return lo(a) < lo(b)+uintptr(len(b))*size && lo(b) < lo(a)+uintptr(len(a))*size
}

// TestSortCacheConcurrent hammers one cache from many goroutines under -race,
// then releases it — twice, the second a no-op — while a second cache, over a
// relation of another size, is still being read and starts building contexts
// from what the first gave back, and a third over the first relation refills
// from the free list too. Every partition read, before and after, must equal the
// comparator sort's: an array released while in use, or released twice and
// so handed to two partitions, would show as a wrong one. Then goroutines
// race on the same misses of fresh caches, and what the caches keep is
// checked once they are done.
func TestSortCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r, other := relationWithConstant(rng, 32, 4), relationWithConstant(rng, 57, 3)
	// [C, A] is a prefix nobody asks for: racing goroutines build it on the
	// way and converge on one. Refining by K, and [A, B, C] over 32 rows,
	// share their prefix's arrays.
	contexts := []List{nil, L("A"), L("B"), L("C"), L("A", "B"), L("B", "C"), L("C", "A", "B"), L("C", "A", "D"), L("A", "K"), L("K", "D", "B"), L("A", "B", "C"), L("A", "B", "C", "K")}
	released := make(chan struct{})
	hammer := func(wg *sync.WaitGroup, c *SortCache, r *Relation, goroutines, rounds int, wait bool) {
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range rounds {
					n := len(contexts)
					if wait && i < rounds/2 {
						n /= 2 // half the contexts before the first cache is released, all after
					} else if wait && i == rounds/2 {
						<-released
					}
					x := contexts[(g+i)%n]
					p, err := c.Get(x)
					if err != nil {
						t.Error(err)
						return
					}
					want, err := sortPartitionOnCmp(r, x)
					if err != nil {
						t.Error(err)
						return
					}
					if !samePartition(p, want) {
						t.Errorf("partition over %v = %+v, comparator %+v", x, p, want)
						return
					}
				}
			}()
		}
	}
	first, second := NewSortCache(r), NewSortCache(other)
	var firstDone, rest sync.WaitGroup
	hammer(&firstDone, first, r, 8, 200, false)
	hammer(&rest, second, other, 4, 400, true)
	firstDone.Wait()
	checkOwnership(t, first)
	first.Release()
	first.Release()
	close(released)
	third := NewSortCache(r)
	hammer(&rest, third, r, 4, 200, false)
	rest.Wait()
	for _, c := range []*SortCache{second, third} {
		checkOwnership(t, c)
		c.Release()
	}

	// Racing misses: goroutines let go at once on a fresh cache ask the same
	// contexts in the same order, so that concurrent misses lose publishes.
	// Once all are done every partition the cache holds must still be the
	// comparator's: a losing copy that gave back the winner's arrays, which a
	// later miss refills or the scratchcheck build poisons, shows here.
	big := relationWithConstant(rng, 2000, 40)
	for range 20 {
		c := NewSortCache(big)
		start := make(chan struct{})
		var racing sync.WaitGroup
		for range 8 {
			racing.Add(1)
			go func() {
				defer racing.Done()
				<-start
				for _, x := range contexts {
					if _, err := c.Get(x); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		close(start)
		racing.Wait()
		for _, x := range contexts {
			p, err := c.Get(x)
			if err != nil {
				t.Fatal(err)
			}
			if want, err := sortPartitionOnCmp(big, x); err != nil || !samePartition(p, want) {
				t.Fatalf("after racing misses, the partition over %v is not the comparator's (%v)", x, err)
			}
		}
		checkOwnership(t, c)
		c.Release()
	}
}

// TestGetColsMatchesGet: a context asked for by column position is the
// context asked for by name — one cache entry, one count, the same Index,
// Tie and Groups as the comparator sort — and CheckCols over it reports the
// violation kind SatisfiesWith does, allocating nothing, as a cached GetCols
// does. A position outside the schema fails both, as does a released
// relation.
func TestGetColsMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	universe := L("A", "B", "C", "D")
	for trial := range 40 {
		r := RandRelation(rng, universe, rng.Intn(30), 1+rng.Intn(4))
		byName, byCols := NewSortCache(r), NewSortCache(r)
		for range 6 {
			x := RandList(rng, universe, 3).Normalize()
			cols := make([]int, len(x))
			for i, a := range x {
				cols[i], _ = r.Col(a)
			}
			named, err := byName.Get(x)
			if err != nil {
				t.Fatal(err)
			}
			p, err := byCols.GetCols(cols)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sortPartitionOnCmp(r, x)
			if err != nil {
				t.Fatal(err)
			}
			if p.Context != nil || !samePartition(named, want) || !samePartition(&SortedPartition{Context: x, Index: p.Index, Tie: p.Tie, Groups: p.Groups}, want) {
				t.Fatalf("trial %d: context %v: GetCols %+v, Get %+v, comparator %+v", trial, x, p, named, want)
			}
			// The same context by name, through the cache that holds it
			// by position: one entry, a hit.
			_, hits, _ := byCols.Stats()
			if _, err := byCols.Get(x); err != nil {
				t.Fatal(err)
			}
			if _, after, _ := byCols.Stats(); after != hits+1 {
				t.Fatalf("trial %d: %v by name after by position: %d hits, want %d", trial, x, after, hits+1)
			}
			for _, y := range []List{L("A"), L("C", "B"), L("D", "A", "C")} {
				ycols := make([]int, len(y))
				for i, a := range y {
					ycols[i], _ = r.Col(a)
				}
				_, v, err := r.SatisfiesWith(NewOD(x, y), named)
				if err != nil {
					t.Fatal(err)
				}
				var kind ViolationKind
				allocs := testing.AllocsPerRun(10, func() {
					if kind, err = r.CheckCols(p, ycols); err != nil {
						t.Fatal(err)
					}
					if _, err = byCols.GetCols(cols); err != nil {
						t.Fatal(err)
					}
				})
				if kind != v.Kind || allocs != 0 {
					t.Fatalf("trial %d: %v -> %v: CheckCols %v in %.0f allocations, SatisfiesWith %v", trial, x, y, kind, allocs, v.Kind)
				}
			}
		}
		for _, bad := range [][]int{{-1}, {0, 4}} {
			if _, err := byCols.GetCols(bad); err == nil {
				t.Fatalf("GetCols(%v) over 4 attributes succeeded", bad)
			}
			if p, err := byCols.GetCols(nil); err != nil {
				t.Fatal(err)
			} else if _, err := r.CheckCols(p, bad); err == nil {
				t.Fatalf("CheckCols(%v) over 4 attributes succeeded", bad)
			}
		}
		p, err := byCols.GetCols(nil)
		if err != nil {
			t.Fatal(err)
		}
		byName.Release()
		byCols.Release()
		r.Release()
		if _, err := r.CheckCols(p, []int{0}); err == nil {
			t.Fatal("CheckCols on a released relation succeeded")
		}
		if _, err := NewSortCache(r).GetCols([]int{1, 2}); err == nil {
			t.Fatal("GetCols on a released relation succeeded")
		}
	}
}

// TestODStringOneAllocation: an OD renders, and so keys, in one allocation,
// byte for byte as its two sides joined by the arrow.
func TestODStringOneAllocation(t *testing.T) {
	for _, od := range []OD{NewOD(nil, L("A")), NewOD(L("year", "month"), L("quarter")), NewOD(L("A", "B", "C"), nil), {}} {
		want := od.LHS.String() + " -> " + od.RHS.String()
		var got string
		if allocs := testing.AllocsPerRun(10, func() { got = od.Key() }); allocs != 1 || got != want {
			t.Fatalf("%q in %.0f allocations, want %q in 1", got, allocs, want)
		}
	}
}

// TestCacheTableChainsCollisions: contexts whose colsHash collides share one
// chain of the cache's table, and each is found by its positions, never by
// its hash alone. No two contexts of a discovery-sized schema are known to
// collide, so the hash is forced.
func TestCacheTableChainsCollisions(t *testing.T) {
	c := NewSortCache(mustRel(t, L("A", "B", "C"), []int64{1, 2, 3}))
	defer c.Release()
	const h = 7
	c.mu.Lock()
	defer c.mu.Unlock()
	a, b := c.insert(h, []int{0, 1}), c.insert(h, []int{1, 0})
	if got := c.find(h, []int{0, 1}); got != a {
		t.Fatalf("find([0 1]) = %p, want the entry of [0 1] (%p)", got, a)
	}
	if got := c.find(h, []int{1, 0}); got != b {
		t.Fatalf("find([1 0]) = %p, want the entry of [1 0] (%p)", got, b)
	}
	if got := c.find(h, []int{2}); got != nil {
		t.Fatalf("find([2]) = %p under a colliding hash, want nothing", got)
	}
	if c.entries.used != 2 {
		t.Fatalf("%d entries, want 2", c.entries.used)
	}
}
