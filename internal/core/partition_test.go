package core

import (
	"math/rand"
	"sync"
	"testing"
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

// TestSortCacheConcurrent hammers one cache from many goroutines under -race.
func TestSortCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	universe := L("A", "B", "C", "D")
	r := RandRelation(rng, universe, 32, 4)
	c := NewSortCache(r)
	// The last two share the prefix [C, A], which nobody asks for: racing
	// goroutines build it on the way and converge on one.
	contexts := []List{nil, L("A"), L("B"), L("C"), L("A", "B"), L("B", "C"), L("C", "A", "B"), L("C", "A", "D")}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				x := contexts[(g+i)%len(contexts)]
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
		}(g)
	}
	wg.Wait()
}
