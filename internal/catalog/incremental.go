package catalog

import "odlib/internal/core"

// Incremental closure maintenance. The transitive closure is the least set
// containing the inflated declared edges and closed under key-matched
// composition (seededFixpoint). That characterization — a set closure, not
// a particular derivation order — is what makes the incremental paths below
// exact rather than approximate:
//
//   - Add: closure(E ∪ N) is the least closed set containing closure(E) ∪ N,
//     so extending seeds the existing closure as passive composition partners
//     and works the fixpoint only from the new edges.
//   - Remove: removing a declaration can only delete derived ODs whose every
//     derivation passes through the removed premise — and any such derivation
//     gives its source a path to the removed LHS key in the inflated-edge key
//     graph. Sources that cannot reach the removed premise keep their edges
//     verbatim; only the backward-reachable region is recomputed.
//
// Both return a fresh odSet and never mutate their inputs: readers hold the
// old closure outside the catalog lock.

// transitiveClosure computes, from scratch, the fixpoint of the declared set
// under inflation and the Transitivity axiom (OD2): every inflated
// declaration is an active seed of seededFixpoint and nothing is passive.
func transitiveClosure(declared []core.OD) *odSet {
	n := 0
	for _, od := range declared {
		n += len(od.RHS)
	}
	seeds := make([]core.OD, 0, n)
	for _, od := range declared {
		seeds = append(seeds, inflateOne(canon(od))...)
	}
	return seededFixpoint(nil, seeds)
}

// seededFixpoint is the one transitive-closure work loop: from X ↦ Y and
// Y ↦ Z derive X ↦ Z (OD2), lists matched exactly as in Hyrise's
// build_transitive_od_closure. Seeding with inflated edges lets chains
// connect through prefixes — [A] ↦ [B, C] and [B] ↦ [D] yield [A] ↦ [B] and
// hence [A] ↦ [D]. The result contains only non-trivial canonical ODs and
// every one of them is implied by the seeds, so closure membership is a
// sound constant-time fast path for implication.
//
// The closure stays polynomial: every derived OD pairs a left side with a
// right side already present in the inflated input, so its size is at most
// quadratic in the number of distinct sides.
//
// There are two seed classes: passive edges land in the result and the
// composition indexes but are never themselves popped (sound because the
// passive set is closed under composition among its own members — it is a
// closure, or a source-filtered restriction of one, see shrinkClosure),
// while active edges work the fixpoint. Active seeds must be canonical;
// non-trivial is enforced here.
func seededFixpoint(passive []core.OD, active []core.OD) *odSet {
	set := newODSet()
	byLHS := make(map[string][]core.OD)
	byRHS := make(map[string][]core.OD)
	var work []core.OD

	index := func(od core.OD) {
		byLHS[od.LHS.Key()] = append(byLHS[od.LHS.Key()], od)
		byRHS[od.RHS.Key()] = append(byRHS[od.RHS.Key()], od)
	}
	insert := func(od core.OD) {
		if od.Trivial() || !set.add(od) {
			return
		}
		index(od)
		work = append(work, od)
	}

	for _, od := range passive {
		if set.add(od) {
			index(od)
		}
	}
	for _, od := range active {
		insert(od)
	}
	for len(work) > 0 {
		od := work[len(work)-1]
		work = work[:len(work)-1]
		// Derived ODs recombine sides that entered through inflateOne(canon),
		// so they are canonical already — no re-normalization needed inside
		// the fixpoint, which runs under the catalog's write lock.
		// od as the left link: od = X ↦ Y with some Y ↦ Z present.
		for _, right := range byLHS[od.RHS.Key()] {
			insert(core.OD{LHS: od.LHS, RHS: right.RHS})
		}
		// od as the right link: some W ↦ X present with od = X ↦ Y.
		for _, left := range byRHS[od.LHS.Key()] {
			insert(core.OD{LHS: left.LHS, RHS: od.RHS})
		}
	}
	return set
}

// extendClosure returns the transitive closure after declaring added on top
// of a set whose closure is base. added must be canonical (already through
// canon); base is not modified.
func extendClosure(base *odSet, added []core.OD) *odSet {
	var seeds []core.OD
	for _, od := range added {
		seeds = append(seeds, inflateOne(od)...)
	}
	return seededFixpoint(base.unordered(), seeds)
}

// shrinkClosure returns the transitive closure after withdrawing removed
// from a declared set whose closure was old; remaining is the declared set
// after the removal. removed and remaining must be canonical.
//
// Affected region: a derivation is a path of inflated-edge compositions, so
// any closure OD that loses its last derivation had a path through a removed
// edge — whose source is the removed OD's LHS key — giving the OD's own
// source a path to that key. S collects every key that backward-reaches a
// removed LHS key over the old inflated-edge graph; edges with sources
// outside S cannot have used a removed edge and survive verbatim, closed
// under composition among themselves (a composition of surviving edges has a
// surviving source). Edges with sources inside S are recomputed from the
// remaining declarations against that passive backdrop.
func shrinkClosure(old *odSet, removed, remaining []core.OD) *odSet {
	// Reverse key graph of the pre-removal inflated edges.
	rev := make(map[string][]string)
	edge := func(ods []core.OD) {
		for _, od := range ods {
			src := od.LHS.Key()
			for _, d := range inflateOne(od) {
				rev[d.RHS.Key()] = append(rev[d.RHS.Key()], src)
			}
		}
	}
	edge(remaining)
	edge(removed)

	// Backward BFS from the removed premises.
	affected := make(map[string]bool)
	var frontier []string
	mark := func(k string) {
		if !affected[k] {
			affected[k] = true
			frontier = append(frontier, k)
		}
	}
	for _, od := range removed {
		mark(od.LHS.Key())
	}
	for len(frontier) > 0 {
		k := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, src := range rev[k] {
			mark(src)
		}
	}

	var passive []core.OD
	for _, od := range old.unordered() {
		if !affected[od.LHS.Key()] {
			passive = append(passive, od)
		}
	}
	var seeds []core.OD
	for _, od := range remaining {
		if affected[od.LHS.Key()] {
			seeds = append(seeds, inflateOne(od)...)
		}
	}
	return seededFixpoint(passive, seeds)
}
