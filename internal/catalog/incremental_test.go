package catalog

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"odlib/internal/core"
)

// randomODs builds a random OD set over a small attribute pool, shaped to
// produce real transitive structure: short lists over overlapping attributes.
func randomODs(rng *rand.Rand, n, pool int) []core.OD {
	attr := func() core.Attribute {
		return core.Attribute(fmt.Sprintf("A%d", rng.Intn(pool)))
	}
	list := func() core.List {
		l := make(core.List, 1+rng.Intn(3))
		for i := range l {
			l[i] = attr()
		}
		return l
	}
	out := make([]core.OD, n)
	for i := range out {
		out[i] = core.OD{LHS: list(), RHS: list()}
	}
	return out
}

// closureEqual compares two closures as sets.
func closureEqual(a, b *odSet) bool {
	if a.len() != b.len() {
		return false
	}
	for _, od := range a.slice() {
		if !b.has(od) {
			return false
		}
	}
	return true
}

// TestIncrementalRemoveMatchesRecompute drives randomized catalogs through
// interleaved adds and removes and asserts, after every mutation, that the
// incrementally maintained closure is identical to a from-scratch recompute
// of the surviving declarations.
func TestIncrementalRemoveMatchesRecompute(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cat := New()
		var live []core.OD // canonical declared ODs, possibly with duplicates removed by the catalog

		check := func(step string) {
			t.Helper()
			cat.mu.RLock()
			got := cat.cur.closure
			declared := cat.declared.slice()
			cat.mu.RUnlock()
			want := transitiveClosure(declared)
			if !closureEqual(got, want) {
				t.Fatalf("seed %d, %s: incremental closure has %d ODs, recompute %d\nincremental: %v\nrecompute: %v",
					seed, step, got.len(), want.len(), got.slice(), want.slice())
			}

			// The listing is derived from that closure on demand: deflated, in
			// canonical order, and the caller's own copy every time.
			listed := Deflate(want.unordered())
			l1, l2 := cat.Listing(), cat.Listing()
			if !slices.EqualFunc(l1.Closure, listed, core.OD.Equal) {
				t.Fatalf("seed %d, %s: Listing().Closure = %v, want Deflate of the recompute %v", seed, step, l1.Closure, listed)
			}
			if snap := cat.Snapshot(); !slices.EqualFunc(snap, listed, core.OD.Equal) {
				t.Fatalf("seed %d, %s: Snapshot() = %v, want %v", seed, step, snap, listed)
			}
			if !slices.EqualFunc(l1.Declared, declared, core.OD.Equal) ||
				!slices.IsSortedFunc(l1.Declared, func(a, b core.OD) int { return strings.Compare(a.Key(), b.Key()) }) {
				t.Fatalf("seed %d, %s: Listing().Declared = %v, want the declared set in canonical order", seed, step, l1.Declared)
			}
			if !slices.EqualFunc(l1.Declared, l2.Declared, core.OD.Equal) || !slices.EqualFunc(l1.Closure, l2.Closure, core.OD.Equal) {
				t.Fatalf("seed %d, %s: two listings of one generation differ", seed, step)
			}
			if len(l1.Declared) > 0 && &l1.Declared[0] == &l2.Declared[0] ||
				len(l1.Closure) > 0 && &l1.Closure[0] == &l2.Closure[0] {
				t.Fatalf("seed %d, %s: two listings share a backing array", seed, step)
			}
		}

		for round := 0; round < 8; round++ {
			batch := randomODs(rng, 1+rng.Intn(5), 6)
			cat.Add(batch...)
			live = append(live, batch...)
			check(fmt.Sprintf("round %d add", round))

			// Remove a random subset of everything ever declared (some hits,
			// some misses — misses must not disturb the closure).
			var victims []core.OD
			for _, od := range live {
				if rng.Intn(3) == 0 {
					victims = append(victims, od)
				}
			}
			if len(victims) > 0 {
				cat.Remove(victims...)
				check(fmt.Sprintf("round %d remove", round))
			}
		}
	}
}

// TestIncrementalChainRemoval pins the affected-region semantics on a shape
// where it matters: removing one link of a long chain must drop exactly the
// derived ODs crossing that link.
func TestIncrementalChainRemoval(t *testing.T) {
	cat := New()
	const n = 8
	var chain []core.OD
	for i := 0; i+1 < n; i++ {
		od := core.OD{
			LHS: core.L(fmt.Sprintf("A%d", i)),
			RHS: core.L(fmt.Sprintf("A%d", i+1)),
		}
		chain = append(chain, od)
		cat.Add(od)
	}
	// Full chain: A0 reaches A7.
	if !cat.Has(core.OD{LHS: core.L("A0"), RHS: core.L(fmt.Sprintf("A%d", n-1))}) {
		t.Fatal("closure should span the whole chain")
	}

	// Cut the middle link: the downstream half must survive untouched, every
	// derived OD crossing the cut must vanish.
	cut := n / 2
	cat.Remove(chain[cut-1])
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			od := core.OD{LHS: core.L(fmt.Sprintf("A%d", i)), RHS: core.L(fmt.Sprintf("A%d", j))}
			crossesCut := i < cut && j >= cut
			if got := cat.Has(od); got == crossesCut {
				t.Errorf("after cutting link %d: Has(%s) = %v", cut, od, got)
			}
		}
	}
}

// TestApplyBatchSemantics checks order-sensitivity and the single-rebuild
// batch path against the equivalent sequence of individual mutations.
func TestApplyBatchSemantics(t *testing.T) {
	ab := core.OD{LHS: core.L("A"), RHS: core.L("B")}
	bc := core.OD{LHS: core.L("B"), RHS: core.L("C")}

	cat := New()
	added, removed, st := cat.Apply([]Mutation{
		{ODs: []core.OD{ab, bc}},
		{Remove: true, ODs: []core.OD{ab}},
	})
	if added != 2 || removed != 1 {
		t.Fatalf("added %d removed %d, want 2 and 1", added, removed)
	}
	if st.Declared != 1 {
		t.Fatalf("declared %d, want 1", st.Declared)
	}
	if cat.Has(core.OD{LHS: core.L("A"), RHS: core.L("C")}) {
		t.Fatal("withdrawn premise still contributes to the closure")
	}
	if !cat.Has(bc) {
		t.Fatal("surviving declaration missing from closure")
	}

	// A generation must have advanced exactly once for the whole batch.
	if st.Generation != 1 {
		t.Fatalf("generation %d after one batch, want 1", st.Generation)
	}
}

// TestApplyEffectiveNetAndInverse pins the rollback contract: net lists
// reflect membership changes only, and applying the inverse restores the
// exact pre-batch declared set.
func TestApplyEffectiveNetAndInverse(t *testing.T) {
	ab := core.OD{LHS: core.L("A"), RHS: core.L("B")}
	bc := core.OD{LHS: core.L("B"), RHS: core.L("C")}
	cd := core.OD{LHS: core.L("C"), RHS: core.L("D")}

	cat := New()
	cat.Add(ab, bc)
	before := core.ODsString(cat.Declared())

	// Batch: declare cd (net add), remove ab (net remove), declare+remove
	// a transient OD (net nothing).
	xy := core.OD{LHS: core.L("X"), RHS: core.L("Y")}
	_, _, netAdded, netRemoved, _ := cat.ApplyEffective([]Mutation{
		{ODs: []core.OD{cd, xy}},
		{Remove: true, ODs: []core.OD{ab, xy}},
	})
	if len(netAdded) != 1 || !netAdded[0].Equal(cd) {
		t.Fatalf("netAdded = %v, want just %s", netAdded, cd)
	}
	if len(netRemoved) != 1 || !netRemoved[0].Equal(ab) {
		t.Fatalf("netRemoved = %v, want just %s", netRemoved, ab)
	}

	// The inverse restores the pre-batch declared set exactly.
	cat.Apply([]Mutation{
		{Remove: true, ODs: netAdded},
		{ODs: netRemoved},
	})
	if after := core.ODsString(cat.Declared()); after != before {
		t.Fatalf("inverse did not restore the declared set: %s != %s", after, before)
	}
}

// TestApplyChurnAllocations pins what one mutation costs on mutate-churn's
// shard as a count: adding or removing an isolated OD re-indexes the closure
// but orders nothing except the declared set, each key rendered once. With
// rendering inside the sort comparator, and the closure sorted twice and
// deflated per mutation, one mutation was ≈ 163,000 allocations.
func TestApplyChurnAllocations(t *testing.T) {
	cat := New()
	cat.Add(churnShard()...)
	fromScratch := func() []core.OD {
		return Deflate(transitiveClosure(cat.Declared()).unordered())
	}
	checkpoint := func(step string, closure int) {
		t.Helper()
		if st := cat.Stats(); st.Closure != closure {
			t.Fatalf("%s: closure %d, want %d", step, st.Closure, closure)
		}
		if got, want := cat.Listing().Closure, fromScratch(); !slices.EqualFunc(got, want, core.OD.Equal) {
			t.Fatalf("%s: listing differs from a from-scratch closure:\n%v\n%v", step, got, want)
		}
	}
	isolated := func(k int) core.OD { return isolatedOD(fmt.Sprintf("y%d", k)) }

	checkpoint("churn shard", 704)
	cat.Add(isolated(0))
	checkpoint("after add", 705)
	cat.Remove(isolated(0))
	checkpoint("after remove", 704)

	// AllocsPerRun calls its function runs+1 times; each call must be an
	// effective mutation, so the adds walk k up and the removes walk it down.
	const runs, limit = 3, 11000
	k := 0
	adds := testing.AllocsPerRun(runs, func() { k++; cat.Add(isolated(k)) })
	checkpoint("after the measured adds", 704+runs+1)
	removes := testing.AllocsPerRun(runs, func() { cat.Remove(isolated(k)); k-- })
	checkpoint("after the measured removes", 704)
	if adds > limit || removes > limit {
		t.Errorf("one add %.0f allocations, one remove %.0f; want at most %d each", adds, removes, limit)
	}
	t.Logf("one add %.0f allocations, one remove %.0f", adds, removes)
}
